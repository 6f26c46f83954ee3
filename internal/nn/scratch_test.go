package nn

import (
	"testing"

	"repro/internal/simcore"
)

func TestForwardIntoMatchesForward(t *testing.T) {
	m := newTestMLP(11)
	s := NewScratch(m)
	xs := [][]float64{
		{0.5, -1, 0.25},
		{0, 0, 0},
		{-2, 3, 0.125},
	}
	for _, x := range xs {
		want := m.Forward(x)
		got := m.ForwardInto(x, s)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("x=%v: ForwardInto=%v Forward=%v", x, got, want)
			}
		}
	}
}

func TestForwardTraceIntoMatchesForwardTrace(t *testing.T) {
	m := newTestMLP(12)
	tr := NewTrace(m)
	x := []float64{0.5, -1, 0.25}
	want := m.ForwardTrace(x)
	got := m.ForwardTraceInto(x, tr)
	if got != tr {
		t.Fatal("ForwardTraceInto must return its argument")
	}
	for li := range want.acts {
		for i := range want.acts[li] {
			if got.acts[li][i] != want.acts[li][i] {
				t.Fatalf("layer %d act %d: %v vs %v", li, i, got.acts[li], want.acts[li])
			}
		}
	}
	// The trace must own its input buffer: mutating x afterwards must not
	// change the recorded activations.
	x[0] = 99
	if tr.acts[0][0] == 99 {
		t.Fatal("trace aliases caller input")
	}
}

func TestBackwardIntoMatchesBackward(t *testing.T) {
	m := newTestMLP(13)
	s := NewScratch(m)
	x := []float64{0.3, -0.7, 1.1}
	dOut := []float64{1.0, -0.5}

	tr := m.ForwardTrace(x)
	gWant := NewGrads(m)
	dInWant := m.Backward(tr, dOut, gWant)

	tr2 := NewTrace(m)
	m.ForwardTraceInto(x, tr2)
	gGot := NewGrads(m)
	dInGot := m.BackwardInto(tr2, dOut, gGot, s)

	if len(dInGot) != len(dInWant) {
		t.Fatalf("input grad len %d vs %d", len(dInGot), len(dInWant))
	}
	for i := range dInWant {
		if dInGot[i] != dInWant[i] {
			t.Fatalf("input grad %d: %v vs %v", i, dInGot, dInWant)
		}
	}
	for li := range gWant.W {
		for j := range gWant.W[li] {
			if gGot.W[li][j] != gWant.W[li][j] {
				t.Fatalf("W grad layer %d idx %d: %v vs %v", li, j, gGot.W[li][j], gWant.W[li][j])
			}
		}
		for j := range gWant.B[li] {
			if gGot.B[li][j] != gWant.B[li][j] {
				t.Fatalf("B grad layer %d idx %d: %v vs %v", li, j, gGot.B[li][j], gWant.B[li][j])
			}
		}
	}
}

func TestScratchReuseAcrossCalls(t *testing.T) {
	// Repeated ForwardInto calls with one scratch must keep producing
	// results identical to the allocating path (no stale-state leakage).
	m := newTestMLP(14)
	s := NewScratch(m)
	rng := simcore.NewRNG(99)
	x := make([]float64, m.InputDim())
	for iter := 0; iter < 50; iter++ {
		for i := range x {
			x[i] = rng.Range(-2, 2)
		}
		want := m.Forward(x)
		got := m.ForwardInto(x, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %v vs %v", iter, got, want)
			}
		}
	}
}

// policySizedMLP is a Jury/Astraea-sized policy net.
func policySizedMLP() *MLP {
	return NewMLP(simcore.NewRNG(7), []int{15, 64, 32, 1}, []Activation{ReLU, ReLU, Tanh})
}

// TestScratchPathsAllocFree pins the steady-state allocation contract of
// the scalar scratch paths: inference through ForwardInto, and a training
// step through ForwardTraceInto and BackwardInto.
func TestScratchPathsAllocFree(t *testing.T) {
	m := policySizedMLP()
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	s := NewScratch(m)
	if avg := testing.AllocsPerRun(100, func() { m.ForwardInto(x, s) }); avg != 0 {
		t.Errorf("ForwardInto allocates %v per call, want 0", avg)
	}
	dOut := []float64{1}
	g := NewGrads(m)
	tr := NewTrace(m)
	if avg := testing.AllocsPerRun(100, func() {
		m.ForwardTraceInto(x, tr)
		g.Zero()
		m.BackwardInto(tr, dOut, g, s)
	}); avg != 0 {
		t.Errorf("ForwardTraceInto+BackwardInto allocates %v per call, want 0", avg)
	}
}
