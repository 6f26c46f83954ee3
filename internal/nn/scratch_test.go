package nn

import (
	"math"
	"testing"

	"repro/internal/simcore"
)

// TestForwardIntoMatchesForward: ForwardInto runs every output as one
// chain from its bias in ForwardTrace's order, so the two agree bit for bit
// — on the toy net and at the Table 2 actor (16-128-128-2) and critic
// (18-128-128-1) widths, whose 128-wide layers take the one-row kernel and
// whose 2- and 1-wide heads the Go body's single-chain tail.
func TestForwardIntoMatchesForward(t *testing.T) {
	rng := simcore.NewRNG(12)
	actor := NewMLP(rng, []int{16, 128, 128, 2}, []Activation{ReLU, ReLU, Tanh})
	critic := NewMLP(rng, []int{18, 128, 128, 1}, []Activation{ReLU, ReLU, Linear})
	cases := []struct {
		m  *MLP
		xs [][]float64
	}{
		{newTestMLP(11), [][]float64{{0.5, -1, 0.25}, {0, 0, 0}, {-2, 3, 0.125}}},
		{actor, [][]float64{randMat(rng, 16), randMat(rng, 16), make([]float64, 16)}},
		{critic, [][]float64{randMat(rng, 18), randMat(rng, 18), make([]float64, 18)}},
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

// TestForwardIntoKernelMatchesGoBody is the oracle for ForwardInto's
// one-row kernel: a one-layer linear net forwarded as dispatched must equal
// its bias plus the shared Go body (rowMulTAddFrom) bit for bit (NaN for
// NaN) for input widths 1–67, 128, 130 and 300 and output widths 1–9, 33 and
// 128, on salted weights, biases and inputs. The scratch starts as garbage
// with a guard tail: the pass must write exactly its Out elements. Under
// -tags purego, and on a machine without AVX, both sides are the Go body.
func TestForwardIntoKernelMatchesGoBody(t *testing.T) {
	rng := simcore.NewRNG(24)
	var ks, ns []int
	for k := 1; k <= 67; k++ {
		ks = append(ks, k)
	}
	for n := 1; n <= 9; n++ {
		ns = append(ns, n)
	}
	ks, ns = append(ks, 128, 130, 300), append(ns, 33, 128)
	const guard = 4
	for _, k := range ks {
		for _, n := range ns {
			l := &Dense{In: k, Out: n, W: saltedMat(rng, n, k), B: saltedVec(rng, n), Act: Linear}
			m := &MLP{Layers: []*Dense{l}}
			x := saltedVec(rng, k)
			stale := saltedVec(rng, max(k, n)+guard)
			s := &Scratch{a: cloneF64(stale), b: cloneF64(stale)}
			m.ForwardInto(x, s)
			want := cloneF64(stale)
			copy(want, l.B)
			rowMulTAddFrom(0, want[:n], x, l.W, k)
			if i, ok := sameBits(s.a, want); !ok {
				t.Fatalf("k=%d n=%d: element %d is %v (%#x), Go body gives %v (%#x)",
					k, n, i, s.a[i], math.Float64bits(s.a[i]), want[i], math.Float64bits(want[i]))
			}
			if i, ok := sameBits(s.b, stale); !ok {
				t.Fatalf("k=%d n=%d: a one-layer pass wrote the second buffer at %d", k, n, i)
			}
		}
	}
}

// TestReLUApplyIsCompareAndClear: the branchless ReLU of apply (ForwardInto
// and ForwardTrace) is `if x < 0 { x = 0 }` bit for bit — −0 and NaNs of
// either sign pass through, −Inf and negative denormals become +0 — on the
// salt values, their negations and random bit patterns.
func TestReLUApplyIsCompareAndClear(t *testing.T) {
	rng := simcore.NewRNG(25)
	v := saltedVec(rng, 256)
	for i := 0; i < 128; i++ {
		v[i] = -v[i]
	}
	for i := 0; i < 1024; i++ {
		v = append(v, math.Float64frombits(rng.Uint64()))
	}
	v = append(v, math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x8000000000000001), -math.MaxFloat64)
	got := cloneF64(v)
	ReLU.apply(got)
	for i, x := range v {
		want := x
		if x < 0 {
			want = 0
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("ReLU(%v = %#x) = %#x, want %#x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
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
