package nn

import (
	"math"
	"testing"

	"repro/internal/simcore"
)

// TestForwardIntoMatchesForward: ForwardInto runs four output chains at a
// time, each in ForwardTrace's order, so the two agree bit for bit — on the
// toy net and at the Table 2 actor widths (16-128-128-2), whose 128-wide
// layers take the four-chain loop and whose 2-wide head the single-chain tail.
func TestForwardIntoMatchesForward(t *testing.T) {
	rng := simcore.NewRNG(12)
	table2 := NewMLP(rng, []int{16, 128, 128, 2}, []Activation{ReLU, ReLU, Tanh})
	cases := []struct {
		m  *MLP
		xs [][]float64
	}{
		{newTestMLP(11), [][]float64{{0.5, -1, 0.25}, {0, 0, 0}, {-2, 3, 0.125}}},
		{table2, [][]float64{randMat(rng, 16), randMat(rng, 16), make([]float64, 16)}},
	}
	for _, c := range cases {
		s := NewScratch(c.m)
		for _, x := range c.xs {
			want := c.m.ForwardTrace(x).Output()
			got := c.m.ForwardInto(x, s)
			if len(got) != len(want) {
				t.Fatalf("len %d vs %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("x=%v: ForwardInto=%v ForwardTrace=%v", x, got, want)
				}
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
