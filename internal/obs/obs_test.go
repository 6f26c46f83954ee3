package obs

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/reno"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// buildDumbbell builds a 2-flow single-bottleneck network.
func buildDumbbell(seed uint64) (*netsim.Network, time.Duration) {
	n := netsim.New(netsim.Config{Seed: seed})
	link := n.AddLink(netsim.LinkConfig{
		Rate:        20e6,
		Delay:       20 * time.Millisecond,
		BufferBytes: 64 * 1500,
	})
	algs := []func() cc.Algorithm{
		func() cc.Algorithm { return cubic.New() },
		func() cc.Algorithm { return reno.New() },
	}
	for i, mk := range algs {
		mk := mk
		n.AddFlow(netsim.FlowConfig{
			Name:  []string{"cubic-0", "reno-1"}[i],
			Path:  []*netsim.Link{link},
			Start: time.Duration(i) * time.Second,
			Alg:   mk(),
		})
	}
	return n, 8 * time.Second
}

// buildParkingLot builds a two-bottleneck topology that partitions into two
// shards (both links have positive delay, so the cut has lookahead).
func buildParkingLot(seed uint64) (*netsim.Network, time.Duration) {
	n := netsim.New(netsim.Config{Seed: seed})
	a := n.AddLink(netsim.LinkConfig{Rate: 20e6, Delay: 10 * time.Millisecond, BufferBytes: 64 * 1500})
	b := n.AddLink(netsim.LinkConfig{Rate: 15e6, Delay: 10 * time.Millisecond, BufferBytes: 64 * 1500})
	n.AddFlow(netsim.FlowConfig{Name: "f-a", Path: []*netsim.Link{a}, Alg: cubic.New()})
	n.AddFlow(netsim.FlowConfig{Name: "f-ab", Path: []*netsim.Link{a, b}, Alg: reno.New()})
	n.AddFlow(netsim.FlowConfig{Name: "f-b", Path: []*netsim.Link{b}, Alg: cubic.New()})
	return n, 6 * time.Second
}

// TestStreamingJainMatchesPostHocSequential pins the core exactness claim:
// the cumulative streaming Jain equals metrics.TimewiseJain computed
// post-hoc from the full series, on a sequential run.
func TestStreamingJainMatchesPostHocSequential(t *testing.T) {
	n, horizon := buildDumbbell(41)
	rt := New(Options{Window: 500 * time.Millisecond})
	ob := rt.Attach(n, 1)
	n.Run(horizon)
	sum := ob.Finish(horizon)
	want := metrics.TimewiseJain(n.Flows())
	if math.Abs(sum.FinalJain-want) > 1e-6 {
		t.Fatalf("streaming Jain %.9f vs post-hoc %.9f", sum.FinalJain, want)
	}
	if len(ob.Snapshots()) < int(horizon/(500*time.Millisecond))-1 {
		t.Errorf("only %d snapshots over %v at 500ms cadence", len(ob.Snapshots()), horizon)
	}
	if sum.Samples == 0 || sum.RateP50 <= 0 {
		t.Errorf("summary not populated: %+v", sum)
	}
}

// TestStreamingJainMatchesPostHocSharded repeats the exactness claim on a
// genuinely sharded run: per-shard accumulators merged at coordinator
// barriers must fold instants split across shards back together.
func TestStreamingJainMatchesPostHocSharded(t *testing.T) {
	n, horizon := buildParkingLot(43)
	rt := New(Options{Window: 300 * time.Millisecond})
	ob := rt.Attach(n, 2)
	sr, err := n.RunSharded(horizon, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Partition.Shards != 2 {
		t.Fatalf("expected 2 shards, got %d", sr.Partition.Shards)
	}
	sum := ob.Finish(horizon)
	want := metrics.TimewiseJain(n.Flows())
	if math.Abs(sum.FinalJain-want) > 1e-6 {
		t.Fatalf("streaming Jain %.9f vs post-hoc %.9f (sharded)", sum.FinalJain, want)
	}
	if len(ob.Snapshots()) == 0 {
		t.Fatal("no snapshots emitted from sharded run")
	}
}

// TestGroupTableOverflowQuantizes feeds more distinct instants than the
// table holds and checks samples are never lost: they fold into quantized
// groups (and at worst the catch-all), keeping memory fixed.
func TestGroupTableOverflowQuantizes(t *testing.T) {
	g := groupTable{quantum: int64(200 * time.Millisecond)}
	const samples = 10000
	for i := 0; i < samples; i++ {
		g.add(int64(i)*7919+1, 1.0) // distinct pseudo-random instants
	}
	var n int64
	for i := range g.slots {
		n += g.slots[i].n
	}
	n += g.overflow.n
	if n != samples {
		t.Fatalf("table holds %d samples, want %d", n, samples)
	}
	if g.used > groupSlots {
		t.Fatalf("used %d beyond capacity", g.used)
	}
}

// TestSampleRecordedAllocs pins zero allocations on the streaming hot path.
func TestSampleRecordedAllocs(t *testing.T) {
	n, _ := buildDumbbell(1)
	rt := New(Options{})
	ob := rt.Attach(n, 1)
	f := n.Flows()[0]
	p := netsim.SeriesPoint{T: 200 * time.Millisecond, ThroughputBps: 1e6, AvgRTT: 40 * time.Millisecond}
	if allocs := testing.AllocsPerRun(1000, func() { ob.SampleRecorded(f, p) }); allocs != 0 {
		t.Errorf("SampleRecorded allocates %.1f per op", allocs)
	}
}

// TestFlightRecorderDump runs with a lossy link (drops land in the ring)
// and checks a triggered dump produces ordered, non-empty JSONL.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{Seed: 9})
	link := n.AddLink(netsim.LinkConfig{
		Rate:        5e6,
		Delay:       10 * time.Millisecond,
		BufferBytes: 8 * 1500, // shallow: forces overflow drops
	})
	for i := 0; i < 2; i++ {
		name := []string{"c0", "c1"}[i]
		n.AddFlow(netsim.FlowConfig{Name: name, Path: []*netsim.Link{link}, Alg: cubic.New()})
	}
	rt := New(Options{FlightDir: dir, FlightSize: 128})
	ob := rt.Attach(n, 1)
	n.Run(4 * time.Second)
	path, err := ob.DumpFlight("test-trigger")
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("dump produced no file")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines, lastVT := 0, int64(-1)
	for sc.Scan() {
		line := sc.Text()
		if lines == 0 {
			if !strings.Contains(line, `"flight":"test-trigger"`) {
				t.Errorf("header line %q missing reason", line)
			}
		} else if !strings.Contains(line, `"vt_ns":`) {
			t.Errorf("entry line %q not JSONL", line)
		}
		lines++
		_ = lastVT
	}
	if lines < 10 {
		t.Fatalf("dump has %d lines; expected a populated ring", lines)
	}
	// Dumps are capped: hammering the trigger must not grow the directory
	// unboundedly.
	for i := 0; i < 50; i++ {
		ob.DumpFlight("again")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) > 8 {
		t.Errorf("%d dump files, cap is 8", len(entries))
	}
	if filepath.Ext(path) != ".jsonl" {
		t.Errorf("dump file %q not .jsonl", path)
	}
}

// TestFootprintBoundedByShards pins the O(shards), not O(flows), memory
// claim at the accounting level: footprint is identical for 2-flow and
// many-flow networks.
func TestFootprintBoundedByShards(t *testing.T) {
	small, _ := buildDumbbell(1)
	rtA := New(Options{})
	obA := rtA.Attach(small, 4)

	big := netsim.New(netsim.Config{Seed: 2})
	link := big.AddLink(netsim.LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 64 * 1500})
	for i := 0; i < 500; i++ {
		big.AddFlow(netsim.FlowConfig{
			Name: "f" + string(rune('a'+i%26)) + string(rune('0'+i%10)),
			Path: []*netsim.Link{link},
			Alg:  cubic.New(),
		})
	}
	rtB := New(Options{})
	obB := rtB.Attach(big, 4)
	if obA.FootprintBytes() != obB.FootprintBytes() {
		t.Fatalf("footprint scales with flows: %d vs %d", obA.FootprintBytes(), obB.FootprintBytes())
	}
	if fp := obB.FootprintBytes(); fp > 8<<20 {
		t.Errorf("footprint %d B for 4 shards; expected well under 8 MiB", fp)
	}
}

// TestStatePublishAndRecent covers the live ring.
func TestStatePublishAndRecent(t *testing.T) {
	s := NewState()
	if _, ok := s.Latest(); ok {
		t.Fatal("empty state reports a snapshot")
	}
	for i := 1; i <= stateRingSize+10; i++ {
		s.publish(FairnessSnapshot{T: time.Duration(i), CumJain: 0.9})
	}
	latest, ok := s.Latest()
	if !ok || latest.T != time.Duration(stateRingSize+10) {
		t.Fatalf("latest = %v ok=%v", latest.T, ok)
	}
	recent := s.Recent()
	if len(recent) != stateRingSize {
		t.Fatalf("recent holds %d, want %d", len(recent), stateRingSize)
	}
	if recent[0].T != time.Duration(11) {
		t.Errorf("oldest retained %v, want 11", recent[0].T)
	}
}

// The TestSketch* cases pin the quantile contract obs relies on for its
// rate and RTT panels, on the histogram the accumulators use
// (telemetry.Histogram).

// TestSketchQuantileAccuracy pins the relative error bound of the
// log-bucketed histogram against exact nearest-rank quantiles over a
// log-uniform sample.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h telemetry.Histogram
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Pow(10, rng.Float64()*8-2) // 1e-2 .. 1e6
		xs = append(xs, v)
		h.Observe(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99} {
		exact := xs[int(q*float64(len(xs)-1))]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.07 {
			t.Errorf("q=%v: histogram %v vs exact %v (rel err %.3f > 0.07)", q, got, exact, rel)
		}
	}
}

// TestSketchZeroAndClamp covers the zero bucket and out-of-range clamping.
func TestSketchZeroAndClamp(t *testing.T) {
	var h telemetry.Histogram
	for _, v := range []float64{0, -1, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 0 {
		t.Fatalf("count %d / sum %v after three zero-bucket samples, want 3/0", h.Count(), h.Sum())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("all-zero median %v, want 0", got)
	}
	h.Observe(1e300) // above range: clamps into the top bucket, no panic
	h.Observe(1e-300)
	if got := h.Quantile(1); got <= 0 {
		t.Errorf("max quantile %v after clamped observe", got)
	}
}

// TestSketchMerge checks merge equals observing the union.
func TestSketchMerge(t *testing.T) {
	var a, b, u telemetry.Histogram
	for i := 0; i <= 1000; i++ {
		v := float64(i)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		u.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != u.Count() || a.Sum() != u.Sum() {
		t.Fatalf("merged count=%d sum=%v, want %d/%v", a.Count(), a.Sum(), u.Count(), u.Sum())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.99} {
		if got, want := a.Quantile(q), u.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != union %v", q, got, want)
		}
	}
}

// TestSketchObserveAllocs pins the zero-allocation hot path.
func TestSketchObserveAllocs(t *testing.T) {
	var h telemetry.Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123.4) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f per op", allocs)
	}
}
