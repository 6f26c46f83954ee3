package astraea

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

func TestSurrogateDifferentiatesInDomain(t *testing.T) {
	p := NewSurrogatePolicy()
	// Same congestion, different throughput features: the larger flow must
	// yield more (the fairness mechanism of §2.2).
	mkState := func(thrNorm float64) []float64 {
		s := make([]float64, StateDim)
		n := len(s)
		s[n-5] = thrNorm
		s[n-4] = 1
		s[n-3] = 0.5 // latRatio-1
		s[n-2] = 0.1 // latGrad
		return s
	}
	big := p.Act(mkState(0.8))
	small := p.Act(mkState(0.2))
	if big >= small {
		t.Fatalf("large flow yields %v, small %v — differentiation inverted", big, small)
	}
}

func TestSurrogateSaturatesOutOfDomain(t *testing.T) {
	p := NewSurrogatePolicy()
	mkState := func(thrNorm float64) []float64 {
		s := make([]float64, StateDim)
		n := len(s)
		s[n-5] = thrNorm
		s[n-3] = 0.5
		s[n-2] = 0.1
		return s
	}
	// Two flows both beyond the training max look identical: thrNorm clamps
	// to 1 for both, so their actions are equal and fairness cannot emerge.
	if p.Act(mkState(1.0)) != p.Act(mkState(1.0)) {
		t.Fatal("saturated states should yield identical actions")
	}
}

func TestInDomainFairness(t *testing.T) {
	// 80 Mbps (inside the training domain): two Astraea flows converge.
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 80e6, Delay: 15 * time.Millisecond, BufferBytes: 600_000})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l},
		Alg: New(nil)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Start: 20 * time.Second,
		Alg: New(nil)})
	n.Run(120 * time.Second)
	a := metrics.MeanThroughput(f1, 80*time.Second, 120*time.Second)
	b := metrics.MeanThroughput(f2, 80*time.Second, 120*time.Second)
	if j := metrics.JainIndex([]float64{a, b}); j < 0.9 {
		t.Fatalf("in-domain Jain %v (%v vs %v Mbps)", j, a/1e6, b/1e6)
	}
}

func TestOutOfDomainUnfairness(t *testing.T) {
	// The Fig. 1 reproduction: on a 350 Mbps link the late-arriving flow
	// never reaches parity, unlike in domain.
	n := netsim.New(netsim.Config{Seed: 2})
	l := n.AddLink(netsim.LinkConfig{Rate: 350e6, Delay: 15 * time.Millisecond, BufferBytes: 1_312_500})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l},
		Alg: New(nil)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Start: 20 * time.Second,
		Alg: New(nil)})
	n.Run(120 * time.Second)
	a := metrics.MeanThroughput(f1, 80*time.Second, 120*time.Second)
	b := metrics.MeanThroughput(f2, 80*time.Second, 120*time.Second)
	ratio := math.Max(a, b) / math.Min(a, b)
	if ratio < 1.5 {
		t.Fatalf("out-of-domain flows converged (ratio %v, %v vs %v Mbps) — the Fig. 1 failure did not reproduce",
			ratio, a/1e6, b/1e6)
	}
}

func TestControllerMechanics(t *testing.T) {
	a := New(nil)
	a.Init(0)
	if a.Name() != "astraea" {
		t.Fatal("name wrong")
	}
	w := a.CWND()
	// Startup doubling on empty intervals.
	a.OnInterval(cc.IntervalStats{Interval: 30 * time.Millisecond})
	if a.CWND() != 2*w {
		t.Fatalf("startup did not double: %v -> %v", w, a.CWND())
	}
	// Blackout backs off.
	a.cwnd = 100
	a.OnInterval(cc.IntervalStats{Interval: 30 * time.Millisecond, SentPackets: 10, LostPackets: 10})
	if a.CWND() >= 100 {
		t.Fatal("blackout did not back off")
	}
}

func TestRewardShape(t *testing.T) {
	base := 30 * time.Millisecond
	if Reward(50e6, base, base, 0) <= Reward(10e6, base, base, 0) {
		t.Fatal("reward not increasing in throughput")
	}
	if Reward(50e6, base+30*time.Millisecond, base, 0) >= Reward(50e6, base, base, 0) {
		t.Fatal("reward not penalizing queueing")
	}
	if Reward(50e6, base, base, 0.05) >= Reward(50e6, base, base, 0) {
		t.Fatal("reward not penalizing loss")
	}
}
