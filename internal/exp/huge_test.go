package exp

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/cc/vegas"
	"repro/internal/netsim"
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

// TestHugeEnvShardedDigestParity is the reduced-flow parity smoke check.sh
// runs under -race: a loss-free mesh of 5,000 flows (600 under -short)
// built at the default segment count must digest identically sequentially
// and at 4 shards.
func TestHugeEnvShardedDigestParity(t *testing.T) {
	want := 5000
	if testing.Short() {
		want = 600
	}
	opt := HugeOptions{
		TotalFlows: want,
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
		t.Fatalf("flow counts %d/%d, want %d", a.FlowCount, b.FlowCount, want)
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

// maxLiveBytesPerFlow bounds the live heap a built mesh retains per flow:
// 1.25 × the 532.9 B the 10,000-flow default retained when flows became
// slab-carved flyweights.
const maxLiveBytesPerFlow = 666

// TestHugeLiveBytesPerFlow pins the flyweight flow's memory: building the
// default 10,000-flow mesh retains at most maxLiveBytesPerFlow live bytes
// per flow. A figure below one Flow struct means the mesh escaped the
// measurement, which fails too.
func TestHugeLiveBytesPerFlow(t *testing.T) {
	bpf, err := liveBytesPerFlow(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if floor := unsafe.Sizeof(netsim.Flow{}); bpf < float64(floor) {
		t.Fatalf("built mesh retains %.1f live bytes per flow, less than one %d-byte Flow", bpf, floor)
	}
	if bpf > maxLiveBytesPerFlow {
		t.Fatalf("built mesh retains %.1f live bytes per flow, want at most %d", bpf, maxLiveBytesPerFlow)
	}
	t.Logf("%.1f live bytes per flow", bpf)
}

// liveBytesPerFlow builds a mesh of flows flows and reports the live heap
// bytes it retains per flow after a full collection. A heap that did not
// grow is a failed measurement, not a free mesh.
func liveBytesPerFlow(flows int) (float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, _ := BuildHuge(HugeOptions{TotalFlows: flows, Seed: 7})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0, fmt.Errorf("live heap went from %d to %d bytes across building %d flows", before.HeapAlloc, after.HeapAlloc, flows)
	}
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(flows), nil
}

// millionFlows is BenchmarkScenarioMillion's population.
const millionFlows = 1_000_000

// BenchmarkScenarioMillion is the million-flow capacity proof: one sharded
// run of the parking-lot mesh at 8 shards with a shortened horizon, reporting
// events/sec, bytes/flow, and peak heap. Run it with -benchtime 1x; a full
// million-flow iteration is minutes, not microseconds.
func BenchmarkScenarioMillion(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := RunHuge(HugeOptions{
			TotalFlows: millionFlows,
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
	bpf, err := liveBytesPerFlow(millionFlows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bpf, "bytes/flow")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys), "peak-heap-bytes")
}
