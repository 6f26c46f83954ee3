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
		want := m.ForwardTrace(x).Output()
		got := m.ForwardInto(x, s)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("x=%v: ForwardInto=%v ForwardTrace=%v", x, got, want)
			}
		}
	}
}

func TestScratchReuseAcrossCalls(t *testing.T) {
	// Repeated ForwardInto calls with one scratch must keep producing
	// results identical to the allocating reference (no stale-state leakage).
	m := newTestMLP(14)
	s := NewScratch(m)
	rng := simcore.NewRNG(99)
	x := make([]float64, m.InputDim())
	for iter := 0; iter < 50; iter++ {
		for i := range x {
			x[i] = rng.Range(-2, 2)
		}
		want := m.ForwardTrace(x).Output()
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
// single-sample inference through ForwardInto, the path core.NNPolicy and
// the rl collectors run.
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
}
