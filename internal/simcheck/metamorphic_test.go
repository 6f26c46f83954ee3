package simcheck

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// runJuryScaled runs two Jury flows over a dumbbell whose capacity, packet
// size, and buffer are all scaled by k (a power of two). Because Jury's
// policy inputs are bandwidth-agnostic — ΔRTT and the loss ratio (Eq. 5–7
// of the paper) — and the emulation's timing is invariant under joint
// (rate, MSS, buffer) scaling, the recorded (μ, δ) trajectories must be
// bit-identical across scales.
func runJuryScaled(t *testing.T, k int) ([][]core.RangePoint, *Checker) {
	t.Helper()
	const (
		baseRate = 16e6
		basePkt  = 1500
		owd      = 10 * time.Millisecond
	)
	rate := baseRate * float64(k)
	baseBuf := bdpBytes(baseRate, 2*owd) * 3 / 2 // 1.5 BDP at scale 1
	n := netsim.New(netsim.Config{Seed: 11})
	l := n.AddLink(netsim.LinkConfig{
		Rate:        rate,
		Delay:       owd,
		BufferBytes: baseBuf * k,
		LossRate:    0.002,
	})
	juries := make([]*core.Jury, 2)
	for i := range juries {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(i) + 21
		j := core.New(cfg, core.NewReferencePolicy())
		j.EnableRangeTrace(0)
		juries[i] = j
		n.AddFlow(netsim.FlowConfig{
			Name:       "jury",
			Path:       []*netsim.Link{l},
			PacketSize: basePkt * k,
			Alg:        j,
		})
	}
	ck := Attach(n)
	n.Run(20 * time.Second)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("scale %d: invariant violations: %v", k, vs)
	}
	out := make([][]core.RangePoint, len(juries))
	for i, j := range juries {
		out[i] = j.RangeTrace()
	}
	return out, ck
}

// TestBandwidthScalingRangeInvariant is the paper's central metamorphic
// property as an executable test: scaling the bottleneck bandwidth (here
// jointly with MSS and buffer so packet-level timing is preserved) leaves
// the policy's decision-range trajectory (μ_t, δ_t) exactly invariant,
// because nothing the policy or the occupancy estimator consumes carries
// absolute bandwidth. A single mis-scaled signal anywhere in the
// transformer, occupancy estimator, or post-processing breaks this test.
func TestBandwidthScalingRangeInvariant(t *testing.T) {
	scales := []int{1, 2, 4} // ≥3 capacity scales, powers of two for exact FP
	ref, _ := runJuryScaled(t, scales[0])
	if len(ref[0]) < 100 {
		t.Fatalf("reference run recorded only %d decisions", len(ref[0]))
	}
	for _, k := range scales[1:] {
		got, _ := runJuryScaled(t, k)
		for fi := range ref {
			if len(got[fi]) != len(ref[fi]) {
				t.Fatalf("scale %d flow %d: %d decisions vs %d at scale 1",
					k, fi, len(got[fi]), len(ref[fi]))
			}
			for pi := range ref[fi] {
				a, b := ref[fi][pi], got[fi][pi]
				if a != b {
					t.Fatalf("scale %d flow %d decision %d diverged:\n  scale1: %+v\n  scale%d: %+v",
						k, fi, pi, a, k, b)
				}
			}
		}
	}
}

// TestBandwidthScalingDecisionStatsStable is the pure-bandwidth variant
// (fixed 1500 B MSS, so packet granularity genuinely changes): the decision
// trajectories are no longer bit-identical, but their statistics must stay
// in the same regime across a 4× capacity range — Jury's learned behaviour
// does not depend on the absolute link speed.
func TestBandwidthScalingDecisionStatsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale emulation")
	}
	means := make([]float64, 0, 3)
	for _, rate := range []float64{20e6, 40e6, 80e6} {
		n := netsim.New(netsim.Config{Seed: 5})
		l := n.AddLink(netsim.LinkConfig{
			Rate:        rate,
			Delay:       10 * time.Millisecond,
			BufferBytes: bdpBytes(rate, 20*time.Millisecond),
		})
		cfg := core.DefaultConfig()
		cfg.Seed = 31
		j := core.New(cfg, core.NewReferencePolicy())
		j.EnableRangeTrace(0)
		n.AddFlow(netsim.FlowConfig{
			Name: "jury",
			Path: []*netsim.Link{l},
			Alg:  j,
		})
		ck := Attach(n)
		n.Run(20 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("rate %.0f: violations: %v", rate, vs)
		}
		tr := j.RangeTrace()
		if len(tr) < 100 {
			t.Fatalf("rate %.0f: only %d decisions", rate, len(tr))
		}
		// Skip the first quarter (slow-start transient).
		var mu float64
		pts := tr[len(tr)/4:]
		for _, p := range pts {
			mu += p.Mu
		}
		means = append(means, mu/float64(len(pts)))
	}
	for i := 1; i < len(means); i++ {
		if d := math.Abs(means[i] - means[0]); d > 0.25 {
			t.Fatalf("mean μ drifts with bandwidth: %v", means)
		}
	}
}

// TestJuryHomogeneousJainConverges asserts the fairness end of the paper's
// claim: N homogeneous Jury flows on one bottleneck converge to a Jain
// index near 1, with the invariant checker attached throughout.
func TestJuryHomogeneousJainConverges(t *testing.T) {
	const (
		nFlows  = 4
		rate    = 48e6
		horizon = 40 * time.Second
	)
	n := netsim.New(netsim.Config{Seed: 17})
	l := n.AddLink(netsim.LinkConfig{
		Rate:        rate,
		Delay:       10 * time.Millisecond,
		BufferBytes: bdpBytes(rate, 20*time.Millisecond),
	})
	flows := make([]*netsim.Flow, nFlows)
	for i := 0; i < nFlows; i++ {
		j := core.NewDefault(uint64(i) + 1)
		flows[i] = n.AddFlow(netsim.FlowConfig{
			Name:  "jury",
			Path:  []*netsim.Link{l},
			Start: time.Duration(i) * time.Second,
			Alg:   j,
		})
	}
	ck := Attach(n)
	n.Run(horizon)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
	shares := make([]float64, nFlows)
	for i, f := range flows {
		shares[i] = metrics.MeanThroughput(f, horizon-15*time.Second, horizon)
	}
	if jain := metrics.JainIndex(shares); jain < 0.9 {
		t.Fatalf("late Jain %v (shares %v)", jain, shares)
	}
}

// TestParallelRunsMatchSequentialReplay runs the same scenario once alone
// and then concurrently from several goroutines (the RunMany regime), and
// requires every digest — event stream plus final statistics — to be
// bit-identical to the sequential replay. Any leakage through pooled
// events, packet free-lists, or shared scratch state shows up here.
func TestParallelRunsMatchSequentialReplay(t *testing.T) {
	run := func() uint64 {
		n, ck := buildDumbbell(23, 24e6, 12*time.Millisecond, bdpBytes(24e6, 24*time.Millisecond), 0.001, 3,
			func(i int) cc.Algorithm { return core.NewDefault(uint64(i) + 7) })
		n.Run(10 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Errorf("violations: %v", vs)
		}
		return ck.Digest()
	}
	want := run()
	const workers = 4
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run()
		}(w)
	}
	wg.Wait()
	for w, d := range got {
		if d != want {
			t.Fatalf("parallel run %d digest %#x != sequential replay %#x", w, d, want)
		}
	}
}
