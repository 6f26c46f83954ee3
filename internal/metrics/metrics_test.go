package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

func TestJainIndexKnownValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{10, 10}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{3, 1}, 0.8},
		{nil, 0},
		{[]float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := JainIndex(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJainIndexBounds(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Abs(v))
		}
		if len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		lo := 1/float64(len(xs)) - 1e-9
		return (j == 0 || j >= lo) && j <= 1+1e-9
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJainIndexScaleInvariant(t *testing.T) {
	a := []float64{2, 5, 9}
	b := []float64{20, 50, 90}
	if math.Abs(JainIndex(a)-JainIndex(b)) > 1e-12 {
		t.Fatal("Jain index not scale invariant")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Percentiles(xs, 0, 50, 95, 100)
	for i, p := range []float64{0, 50, 95, 100} {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("Percentiles p%v = %v, want %v (Percentile agreement)", p, got[i], want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("Percentiles sorted the caller's slice")
	}
	for _, v := range Percentiles(nil, 5, 95) {
		if v != 0 {
			t.Fatalf("empty Percentiles = %v, want zeros", v)
		}
	}
	if len(Percentiles(xs)) != 0 {
		t.Fatal("no requested percentiles should yield an empty slice")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean wrong")
	}
}

func buildTwoFlowRun(t *testing.T) []*netsim.Flow {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	f1 := n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l}, Alg: cc.NewManual(8e6)})
	f2 := n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l}, Alg: cc.NewManual(8e6)})
	n.Run(10 * time.Second)
	return []*netsim.Flow{f1, f2}
}

func TestFlowSeriesMetrics(t *testing.T) {
	flows := buildTwoFlowRun(t)
	thr := MeanThroughput(flows[0], 2*time.Second, 10*time.Second)
	if thr < 3e6 || thr > 7e6 {
		t.Fatalf("mean throughput %v, want ~5e6", thr)
	}
	q := MeanQueuingDelayMS(flows[0], 2*time.Second, 10*time.Second)
	if q <= 0 || q > 200 {
		t.Fatalf("queuing delay %v ms", q)
	}
	rtt := MeanRTT(flows[0], 2*time.Second, 10*time.Second)
	if rtt < 20*time.Millisecond {
		t.Fatalf("mean RTT %v below base", rtt)
	}
	if MeanThroughput(flows[0], 50*time.Second, 60*time.Second) != 0 {
		t.Fatal("out-of-range window should be 0")
	}
}

func TestTimewiseJain(t *testing.T) {
	flows := buildTwoFlowRun(t)
	j := TimewiseJain(flows)
	// Two equal-rate manual flows: near-perfect fairness at all times.
	if j < 0.95 {
		t.Fatalf("timewise Jain %v for equal flows", j)
	}
	if TimewiseJain[FlowSeries](nil) != 1 {
		t.Fatal("no-flow timewise Jain should be 1 (vacuous)")
	}
	// A lone flow is trivially fair at every instant.
	if j := TimewiseJain(flows[:1]); j != 1 {
		t.Fatalf("single-flow timewise Jain = %v, want 1", j)
	}
}

// stubSeries is a FlowSeries with a hand-built series.
type stubSeries []netsim.SeriesPoint

func (s stubSeries) Name() string                 { return "stub" }
func (s stubSeries) BaseRTT() time.Duration       { return 0 }
func (s stubSeries) Series() []netsim.SeriesPoint { return s }

// TestTimewiseJainDeterministic pins that identical inputs give identical
// bits: the per-instant indices (all different here, so their sum depends on
// the order of addition) must be folded in time order, not map order.
func TestTimewiseJainDeterministic(t *testing.T) {
	flows := make([]stubSeries, 3)
	for i := 0; i < 64; i++ {
		for f := range flows {
			flows[f] = append(flows[f], netsim.SeriesPoint{
				T:             time.Duration(i) * 200 * time.Millisecond,
				ThroughputBps: 1e6 * (1 + float64(f)*math.Sqrt(float64(i+1))),
			})
		}
	}
	want := math.Float64bits(TimewiseJain(flows))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(TimewiseJain(flows)); got != want {
			t.Fatalf("call %d returned bits %016x, first call %016x", i, got, want)
		}
	}
}

func TestConvergenceTime(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 9})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	man := cc.NewManual(1e6)
	f := n.AddFlow(netsim.FlowConfig{Name: "ramp", Path: []*netsim.Link{l},
		Alg: man})
	n.Run(5 * time.Second)
	man.SetRate(9e6) // jumps to ~fair share at t=5s
	n.Run(15 * time.Second)

	got := ConvergenceTime(f, 0, 9e6, 0.8, 3)
	if got < 4*time.Second || got > 7*time.Second {
		t.Fatalf("convergence time %v, want ~5s", got)
	}
	if ConvergenceTime(f, 0, 100e6, 0.8, 3) != -1 {
		t.Fatal("unreachable share should report -1")
	}
}

// TestConvergenceTimeHoldBoundary: exactly `hold` qualifying samples succeed;
// one more than the series can supply reports -1.
func TestConvergenceTimeHoldBoundary(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 3})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	f := n.AddFlow(netsim.FlowConfig{Name: "steady", Path: []*netsim.Link{l},
		Alg: cc.NewManual(9e6)})
	n.Run(10 * time.Second)

	target := 0.8 * 9e6
	qualifying := 0
	for _, p := range f.Series() {
		if p.ThroughputBps >= target {
			qualifying++
		}
	}
	if qualifying < 2 {
		t.Fatalf("test setup: only %d qualifying samples", qualifying)
	}
	if got := ConvergenceTime(f, 0, 9e6, 0.8, qualifying); got < 0 {
		t.Fatalf("hold == qualifying samples (%d) should converge, got %v", qualifying, got)
	}
	if got := ConvergenceTime(f, 0, 9e6, 0.8, qualifying+1); got != -1 {
		t.Fatalf("hold > qualifying samples should report -1, got %v", got)
	}
}

// TestConvergenceTimePreStart: samples before `start` must be ignored — both
// for the clock origin and for run counting.
func TestConvergenceTimePreStart(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 4})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	man := cc.NewManual(9e6)
	f := n.AddFlow(netsim.FlowConfig{Name: "fade", Path: []*netsim.Link{l},
		Alg: man})
	n.Run(5 * time.Second)
	man.SetRate(0.5e6) // collapses after t=5s
	n.Run(15 * time.Second)

	// Fast only before start: the pre-start samples must not count toward
	// convergence measured from t=5s.
	if got := ConvergenceTime(f, 5*time.Second, 9e6, 0.8, 3); got != -1 {
		t.Fatalf("pre-start samples leaked into the hold run: got %v, want -1", got)
	}
	// Measured from t=0 the same flow converges almost immediately, and the
	// reported time is relative to start (never negative).
	got := ConvergenceTime(f, 0, 9e6, 0.8, 3)
	if got < 0 || got > 2*time.Second {
		t.Fatalf("convergence from t=0 = %v, want small and non-negative", got)
	}
}
