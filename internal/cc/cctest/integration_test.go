// Package cctest holds emulator-driven integration tests for the classic
// congestion-control schemes: each scheme runs on realistic bottlenecks and
// must exhibit its published macroscopic behaviour (utilization, queueing,
// fairness convergence, loss response).
package cctest

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/bbr"
	"repro/internal/cc/copa"
	"repro/internal/cc/cubic"
	"repro/internal/cc/reno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/vivace"
	"repro/internal/netsim"
	"repro/internal/simcheck"
)

// runSingle runs one flow of the given scheme over a bottleneck and returns
// (utilization, mean queuing delay ms in the second half, loss rate).
func runSingle(t *testing.T, mk func() cc.Algorithm, rate float64, owd time.Duration, bufBytes int, lossRate float64, horizon time.Duration) (float64, float64, float64) {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 42})
	l := n.AddLink(netsim.LinkConfig{Rate: rate, Delay: owd, BufferBytes: bufBytes, LossRate: lossRate})
	f := n.AddFlow(netsim.FlowConfig{Name: "f", Path: []*netsim.Link{l}, Alg: mk()})
	ck := simcheck.Attach(n)
	n.Run(horizon)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}

	util := l.Utilization(horizon)
	base := f.BaseRTT()
	var qSum float64
	var qN int
	for _, p := range f.Series() {
		if p.T > horizon/2 && p.AvgRTT > 0 {
			qSum += float64(p.AvgRTT-base) / float64(time.Millisecond)
			qN++
		}
	}
	q := 0.0
	if qN > 0 {
		q = qSum / float64(qN)
	}
	return util, q, f.Stats().LossRate
}

// bdpBytes computes the bandwidth-delay product in bytes for rate (bits/s)
// and round-trip time.
func bdpBytes(rate float64, rtt time.Duration) int {
	return int(rate / 8 * rtt.Seconds())
}

func TestCubicSaturatesCleanLink(t *testing.T) {
	buf := bdpBytes(50e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return cubic.New() }, 50e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.85 {
		t.Fatalf("cubic utilization %v on a clean 50 Mbps link", util)
	}
}

func TestCubicCollapsesOnLossyLink(t *testing.T) {
	// The paper (Fig. 10c) relies on CUBIC's inability to distinguish
	// random loss from congestion: at 1% loss it badly underutilizes.
	buf := bdpBytes(50e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return cubic.New() }, 50e6, 15*time.Millisecond, buf, 0.01, 60*time.Second)
	if util > 0.6 {
		t.Fatalf("cubic utilization %v at 1%% loss, expected collapse", util)
	}
}

func TestCubicFillsBufferQueue(t *testing.T) {
	// Loss-based control keeps the buffer mostly full: queueing delay must
	// be a large fraction of the buffer drain time.
	buf := 4 * bdpBytes(20e6, 30*time.Millisecond) // 4 BDP = 120 ms drain
	_, q, _ := runSingle(t, func() cc.Algorithm { return cubic.New() }, 20e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if q < 40 {
		t.Fatalf("cubic queuing delay %v ms on a 4-BDP buffer, want deep queue", q)
	}
}

func TestRenoSaturatesCleanLink(t *testing.T) {
	buf := bdpBytes(20e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return reno.New() }, 20e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.75 {
		t.Fatalf("reno utilization %v", util)
	}
}

func TestVegasKeepsQueueShallow(t *testing.T) {
	buf := 4 * bdpBytes(20e6, 30*time.Millisecond)
	util, q, _ := runSingle(t, func() cc.Algorithm { return vegas.New() }, 20e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.8 {
		t.Fatalf("vegas utilization %v", util)
	}
	// Vegas targets alpha..beta packets of queue: a few ms, not the 120 ms
	// the buffer would allow.
	if q > 15 {
		t.Fatalf("vegas queuing delay %v ms, want shallow queue", q)
	}
}

func TestBBRSaturatesWithBoundedQueue(t *testing.T) {
	buf := 8 * bdpBytes(50e6, 30*time.Millisecond)
	util, q, _ := runSingle(t, func() cc.Algorithm { return bbr.New() }, 50e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.8 {
		t.Fatalf("bbr utilization %v", util)
	}
	// BBR bounds inflight to 2 BDP: the queue can hold ~1 BDP (30 ms), far
	// below the 240 ms the buffer would allow.
	if q > 60 {
		t.Fatalf("bbr queuing delay %v ms, want bounded", q)
	}
}

func TestBBRRobustToRandomLoss(t *testing.T) {
	buf := 2 * bdpBytes(50e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return bbr.New() }, 50e6, 15*time.Millisecond, buf, 0.01, 60*time.Second)
	if util < 0.8 {
		t.Fatalf("bbr utilization %v at 1%% loss, should shrug it off", util)
	}
}

func TestCopaHighUtilLowDelay(t *testing.T) {
	buf := 4 * bdpBytes(20e6, 30*time.Millisecond)
	util, q, _ := runSingle(t, func() cc.Algorithm { return copa.New() }, 20e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.7 {
		t.Fatalf("copa utilization %v", util)
	}
	if q > 40 {
		t.Fatalf("copa queuing delay %v ms", q)
	}
}

func TestVivaceConvergesToCapacity(t *testing.T) {
	buf := 2 * bdpBytes(50e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return vivace.New(1) }, 50e6, 15*time.Millisecond, buf, 0, 60*time.Second)
	if util < 0.7 {
		t.Fatalf("vivace utilization %v", util)
	}
}

func TestVivaceToleratesRandomLoss(t *testing.T) {
	// Vivace's loss term is mild (11.35·x·L): ~1% random loss should not
	// collapse it the way it collapses CUBIC.
	buf := 2 * bdpBytes(50e6, 30*time.Millisecond)
	util, _, _ := runSingle(t, func() cc.Algorithm { return vivace.New(1) }, 50e6, 15*time.Millisecond, buf, 0.005, 60*time.Second)
	if util < 0.6 {
		t.Fatalf("vivace utilization %v at 0.5%% loss", util)
	}
}

// fairShareLate runs two same-scheme flows (second joins at t=30s) and
// returns their late-window throughput ratio (bigger/smaller).
func fairShareLate(t *testing.T, mk func(i int) cc.Algorithm, rate float64, horizon time.Duration) float64 {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 7})
	buf := bdpBytes(rate, 30*time.Millisecond) * 2
	l := n.AddLink(netsim.LinkConfig{Rate: rate, Delay: 15 * time.Millisecond, BufferBytes: buf})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l}, Alg: mk(0)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Start: 30 * time.Second, Alg: mk(1)})
	ck := simcheck.Attach(n)
	n.Run(horizon)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
	late := func(f *netsim.Flow) float64 {
		var sum float64
		var c int
		for _, p := range f.Series() {
			if p.T > horizon-30*time.Second {
				sum += p.ThroughputBps
				c++
			}
		}
		return sum / float64(c)
	}
	a, b := late(f1), late(f2)
	return math.Max(a, b) / math.Min(a, b)
}

func TestCubicFlowsConverge(t *testing.T) {
	ratio := fairShareLate(t, func(int) cc.Algorithm { return cubic.New() }, 30e6, 150*time.Second)
	if ratio > 1.6 {
		t.Fatalf("two cubic flows late-window ratio %v, want ≲1.6", ratio)
	}
}

func TestRenoFlowsConverge(t *testing.T) {
	ratio := fairShareLate(t, func(int) cc.Algorithm { return reno.New() }, 20e6, 150*time.Second)
	if ratio > 1.8 {
		t.Fatalf("two reno flows late-window ratio %v", ratio)
	}
}

func TestBBRFlowsRoughlyShare(t *testing.T) {
	ratio := fairShareLate(t, func(int) cc.Algorithm { return bbr.New() }, 30e6, 150*time.Second)
	if ratio > 2.5 {
		t.Fatalf("two bbr flows late-window ratio %v", ratio)
	}
}
