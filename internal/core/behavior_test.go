package core_test

// Emulator-driven behaviour tests: Jury's headline properties — high
// utilization with a shallow queue, fairness convergence inside and far
// outside the training domain, and RTT fairness — demonstrated end to end.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// lateMean averages a flow's throughput over the trailing window.
func lateMean(f *netsim.Flow, from time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range f.Series() {
		if p.T >= from {
			sum += p.ThroughputBps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestJurySingleFlowHighUtilLowQueue(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 50e6, Delay: 15 * time.Millisecond, BufferBytes: 375_000})
	f := n.AddFlow(netsim.FlowConfig{Name: "j", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	n.Run(60 * time.Second)

	if u := l.Utilization(60 * time.Second); u < 0.85 {
		t.Fatalf("utilization %v, want ≥0.85", u)
	}
	// Steady-state queuing delay: paper reports 3.5-7.2 ms; allow <15 ms.
	var q float64
	var qn int
	for _, p := range f.Series() {
		if p.T > 30*time.Second && p.AvgRTT > 0 {
			q += float64(p.AvgRTT-f.BaseRTT()) / float64(time.Millisecond)
			qn++
		}
	}
	if q/float64(qn) > 15 {
		t.Fatalf("queuing delay %v ms, want shallow", q/float64(qn))
	}
	if lr := f.Stats().LossRate; lr > 0.005 {
		t.Fatalf("loss rate %v, want ~0", lr)
	}
}

func TestJuryFairnessInTrainingDomain(t *testing.T) {
	// 60 Mbps (inside Table 1), two flows, second joins at t=20s.
	n := netsim.New(netsim.Config{Seed: 2})
	l := n.AddLink(netsim.LinkConfig{Rate: 60e6, Delay: 15 * time.Millisecond, BufferBytes: 450_000})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Start: 20 * time.Second,
		Alg: core.NewDefault(2)})
	n.Run(100 * time.Second)

	a, b := lateMean(f1, 60*time.Second), lateMean(f2, 60*time.Second)
	jain := metrics.JainIndex([]float64{a, b})
	if jain < 0.95 {
		t.Fatalf("late Jain index %v (shares %v / %v Mbps)", jain, a/1e6, b/1e6)
	}
	if (a+b)/60e6 < 0.85 {
		t.Fatalf("combined utilization %v", (a+b)/60e6)
	}
}

func TestJuryFairnessGeneralizesBeyondTraining(t *testing.T) {
	if testing.Short() {
		// The claim is specifically about a link 3.5x beyond the training
		// maximum; shrinking the rate or horizon would test something else.
		t.Skip("full-scale unseen-environment emulation")
	}
	// The headline claim (Fig. 1 vs Fig. 7b): a 350 Mbps link is 3.5x the
	// training maximum, and fairness must hold anyway.
	n := netsim.New(netsim.Config{Seed: 3})
	l := n.AddLink(netsim.LinkConfig{Rate: 350e6, Delay: 15 * time.Millisecond, BufferBytes: 1_312_500})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Start: 30 * time.Second,
		Alg: core.NewDefault(2)})
	n.Run(120 * time.Second)

	a, b := lateMean(f1, 80*time.Second), lateMean(f2, 80*time.Second)
	jain := metrics.JainIndex([]float64{a, b})
	if jain < 0.95 {
		t.Fatalf("unseen-env late Jain %v (shares %v / %v Mbps)", jain, a/1e6, b/1e6)
	}
	if (a+b)/350e6 < 0.8 {
		t.Fatalf("combined utilization %v on the unseen link", (a+b)/350e6)
	}
}

func TestJuryRTTFairness(t *testing.T) {
	// Two flows with 3x different base RTTs share a 60 Mbps bottleneck;
	// Jury's occupancy estimation is RTT-independent (§5.1.2).
	n := netsim.New(netsim.Config{Seed: 4})
	l := n.AddLink(netsim.LinkConfig{Rate: 60e6, Delay: 15 * time.Millisecond, BufferBytes: 450_000})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "near", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "far", Path: []*netsim.Link{l}, ExtraOneWay: 30 * time.Millisecond,
		Alg: core.NewDefault(2)})
	n.Run(120 * time.Second)

	a, b := lateMean(f1, 70*time.Second), lateMean(f2, 70*time.Second)
	ratio := math.Max(a, b) / math.Min(a, b)
	if ratio > 1.5 {
		t.Fatalf("RTT-heterogeneous share ratio %v (%v vs %v Mbps)", ratio, a/1e6, b/1e6)
	}
}

func TestJuryLossResilience(t *testing.T) {
	// 0.5% random loss (5x the training max): Jury must keep utilization
	// high where loss-based CC collapses (Fig. 10c).
	n := netsim.New(netsim.Config{Seed: 5})
	l := n.AddLink(netsim.LinkConfig{Rate: 50e6, Delay: 15 * time.Millisecond, BufferBytes: 375_000, LossRate: 0.005})
	n.AddFlow(netsim.FlowConfig{Name: "j", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	n.Run(60 * time.Second)
	if u := l.Utilization(60 * time.Second); u < 0.75 {
		t.Fatalf("utilization %v at 0.5%% random loss", u)
	}
}

func TestJuryHighBDPConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale high-BDP emulation")
	}
	// 350 Mbps, 150 ms RTT (Fig. 7c): convergence is slower but must reach
	// high utilization.
	n := netsim.New(netsim.Config{Seed: 6})
	bdp := int(350e6 / 8 * 0.150)
	l := n.AddLink(netsim.LinkConfig{Rate: 350e6, Delay: 75 * time.Millisecond, BufferBytes: bdp})
	f := n.AddFlow(netsim.FlowConfig{Name: "j", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	n.Run(120 * time.Second)
	if thr := lateMean(f, 60*time.Second); thr/350e6 < 0.8 {
		t.Fatalf("late throughput %v Mbps on the high-BDP link", thr/1e6)
	}
}

func TestJuryOccupancyTracksTruth(t *testing.T) {
	// One Jury flow against a pinned 30 Mbps Manual flow on a 60 Mbps link:
	// at equilibrium Jury's occupancy estimate should hover near its true
	// ~50% share.
	n := netsim.New(netsim.Config{Seed: 7})
	l := n.AddLink(netsim.LinkConfig{Rate: 60e6, Delay: 15 * time.Millisecond, BufferBytes: 450_000})
	j := core.NewDefault(1)
	n.AddFlow(netsim.FlowConfig{Name: "jury", Path: []*netsim.Link{l}, Alg: j})
	n.AddFlow(netsim.FlowConfig{Name: "cbr", Path: []*netsim.Link{l},
		Alg: cc.NewManual(30e6)})
	// Sample occupancy over the last 30s.
	var samples []float64
	for s := 60; s <= 90; s += 2 {
		n.Run(time.Duration(s) * time.Second)
		samples = append(samples, j.Occupancy())
	}
	var mean float64
	for _, v := range samples {
		mean += v
	}
	mean /= float64(len(samples))
	if mean < 0.2 || mean > 0.85 {
		t.Fatalf("mean occupancy estimate %v for a ~0.5 true share", mean)
	}
}

func TestJuryDeterministicRuns(t *testing.T) {
	run := func() int64 {
		n := netsim.New(netsim.Config{Seed: 8})
		l := n.AddLink(netsim.LinkConfig{Rate: 40e6, Delay: 15 * time.Millisecond, BufferBytes: 300_000})
		f := n.AddFlow(netsim.FlowConfig{Name: "j", Path: []*netsim.Link{l},
			Alg: core.NewDefault(9)})
		n.Run(20 * time.Second)
		return f.Stats().AckedBytes
	}
	if run() != run() {
		t.Fatal("same-seed Jury runs diverged")
	}
}

func TestJuryManyFlowsShareFairly(t *testing.T) {
	// 6 flows on 90 Mbps: Jain over late-window shares must be high.
	n := netsim.New(netsim.Config{Seed: 9})
	l := n.AddLink(netsim.LinkConfig{Rate: 90e6, Delay: 15 * time.Millisecond, BufferBytes: 675_000})
	flows := make([]*netsim.Flow, 6)
	for i := range flows {
		seed := uint64(i) + 1
		flows[i] = n.AddFlow(netsim.FlowConfig{
			Name: fmt.Sprintf("j%d", i), Path: []*netsim.Link{l},
			Start: time.Duration(i) * 5 * time.Second,
			Alg:   core.NewDefault(seed),
		})
	}
	n.Run(150 * time.Second)
	shares := make([]float64, len(flows))
	for i, f := range flows {
		shares[i] = lateMean(f, 100*time.Second)
	}
	if jain := metrics.JainIndex(shares); jain < 0.9 {
		t.Fatalf("6-flow late Jain %v (shares %v)", jain, shares)
	}
}

func TestJuryRobustToPathJitter(t *testing.T) {
	// ±3ms of per-packet jitter on a 30ms-RTT path injects exactly the RTT
	// noise §3.4's averaging is meant to absorb: utilization must hold.
	n := netsim.New(netsim.Config{Seed: 11})
	l := n.AddLink(netsim.LinkConfig{Rate: 40e6, Delay: 15 * time.Millisecond,
		BufferBytes: 300_000, JitterStd: 3 * time.Millisecond})
	n.AddFlow(netsim.FlowConfig{Name: "j", Path: []*netsim.Link{l},
		Alg: core.NewDefault(1)})
	n.Run(60 * time.Second)
	if u := l.Utilization(60 * time.Second); u < 0.75 {
		t.Fatalf("utilization %v under path jitter", u)
	}
}
