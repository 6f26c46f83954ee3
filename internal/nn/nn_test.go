package nn

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simcore"
)

func newTestMLP(seed uint64) *MLP {
	rng := simcore.NewRNG(seed)
	return NewMLP(rng, []int{3, 8, 5, 2}, []Activation{ReLU, Tanh, Linear})
}

func TestForwardShapes(t *testing.T) {
	m := newTestMLP(1)
	if m.InputDim() != 3 || m.OutputDim() != 2 {
		t.Fatalf("dims %d/%d", m.InputDim(), m.OutputDim())
	}
	out := m.ForwardTrace([]float64{0.1, -0.2, 0.3}).Output()
	if len(out) != 2 {
		t.Fatalf("output len %d", len(out))
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite output %v", out)
		}
	}
}

func TestForwardTraceMatchesForward(t *testing.T) {
	m := newTestMLP(2)
	x := []float64{0.5, -1, 0.25}
	a := m.ForwardTrace(x).Output()
	b := m.ForwardInto(x, NewScratch(m))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace output diverges: %v vs %v", a, b)
		}
	}
}

// numericalGrad estimates dLoss/dtheta for a scalar loss by central
// differences, where loss = sum(output · dOut).
func numericalGrad(m *MLP, x, dOut []float64, theta *float64) float64 {
	const h = 1e-6
	orig := *theta
	loss := func() float64 {
		out := m.ForwardTrace(x).Output()
		var s float64
		for i, o := range out {
			s += o * dOut[i]
		}
		return s
	}
	*theta = orig + h
	lp := loss()
	*theta = orig - h
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * h)
}

func TestBackwardMatchesNumericalGradients(t *testing.T) {
	m := newTestMLP(3)
	x := []float64{0.3, -0.7, 1.1}
	dOut := []float64{1.0, -0.5}

	tr := m.ForwardTrace(x)
	g := NewGrads(m)
	m.Backward(tr, dOut, g)

	for li, l := range m.Layers {
		for wi := range l.W {
			want := numericalGrad(m, x, dOut, &l.W[wi])
			got := g.W[li][wi]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("layer %d W[%d]: analytic %v numeric %v", li, wi, got, want)
			}
		}
		for bi := range l.B {
			want := numericalGrad(m, x, dOut, &l.B[bi])
			got := g.B[li][bi]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("layer %d B[%d]: analytic %v numeric %v", li, bi, got, want)
			}
		}
	}
}

func TestBackwardInputGradientMatchesNumerical(t *testing.T) {
	m := newTestMLP(4)
	x := []float64{0.3, -0.7, 1.1}
	dOut := []float64{0.8, 0.2}
	tr := m.ForwardTrace(x)
	g := NewGrads(m)
	dIn := m.Backward(tr, dOut, g)

	const h = 1e-6
	for i := range x {
		orig := x[i]
		loss := func() float64 {
			out := m.ForwardTrace(x).Output()
			return out[0]*dOut[0] + out[1]*dOut[1]
		}
		x[i] = orig + h
		lp := loss()
		x[i] = orig - h
		lm := loss()
		x[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(dIn[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dInput[%d]: analytic %v numeric %v", i, dIn[i], want)
		}
	}
}

func TestGradCheckSigmoidNetwork(t *testing.T) {
	rng := simcore.NewRNG(11)
	m := NewMLP(rng, []int{2, 6, 1}, []Activation{Sigmoid, Sigmoid})
	x := []float64{0.4, -0.9}
	dOut := []float64{1}
	tr := m.ForwardTrace(x)
	g := NewGrads(m)
	m.Backward(tr, dOut, g)
	l := m.Layers[0]
	for wi := range l.W {
		want := numericalGrad(m, x, dOut, &l.W[wi])
		if math.Abs(g.W[0][wi]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("sigmoid grad mismatch at %d: %v vs %v", wi, g.W[0][wi], want)
		}
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	rng := simcore.NewRNG(7)
	m := NewMLP(rng, []int{2, 16, 1}, []Activation{Tanh, Sigmoid})
	opt := NewAdam(m, 0.01)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	g := NewGrads(m)
	for epoch := 0; epoch < 3000; epoch++ {
		g.Zero()
		for i, x := range inputs {
			tr := m.ForwardTrace(x)
			out := tr.Output()[0]
			// d(MSE)/dout = 2(out - target)
			m.Backward(tr, []float64{2 * (out - targets[i])}, g)
		}
		g.Scale(1.0 / float64(len(inputs)))
		opt.Step(m, g)
	}
	for i, x := range inputs {
		out := m.ForwardTrace(x).Output()[0]
		if math.Abs(out-targets[i]) > 0.1 {
			t.Fatalf("XOR not learned: f(%v)=%v want %v", x, out, targets[i])
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// Fit y = 2x1 - 3x2 + 1 with a linear net: Adam must drive MSE ~0.
	rng := simcore.NewRNG(9)
	m := NewMLP(rng, []int{2, 1}, []Activation{Linear})
	opt := NewAdam(m, 0.05)
	g := NewGrads(m)
	data := make([][3]float64, 64)
	for i := range data {
		x1, x2 := rng.Range(-1, 1), rng.Range(-1, 1)
		data[i] = [3]float64{x1, x2, 2*x1 - 3*x2 + 1}
	}
	for epoch := 0; epoch < 500; epoch++ {
		g.Zero()
		for _, d := range data {
			tr := m.ForwardTrace([]float64{d[0], d[1]})
			m.Backward(tr, []float64{2 * (tr.Output()[0] - d[2])}, g)
		}
		g.Scale(1.0 / float64(len(data)))
		opt.Step(m, g)
	}
	l := m.Layers[0]
	if math.Abs(l.W[0]-2) > 0.05 || math.Abs(l.W[1]+3) > 0.05 || math.Abs(l.B[0]-1) > 0.05 {
		t.Fatalf("regression weights W=%v B=%v, want [2,-3],[1]", l.W, l.B)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := newTestMLP(5)
	c := m.Clone()
	m.Layers[0].W[0] += 100
	if c.Layers[0].W[0] == m.Layers[0].W[0] {
		t.Fatal("clone shares storage")
	}
	// Equal architecture and (pre-mutation) outputs.
	x := []float64{0.1, 0.2, 0.3}
	m.Layers[0].W[0] -= 100
	a, b := m.ForwardTrace(x).Output(), c.ForwardTrace(x).Output()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone output differs")
		}
	}
}

func TestSoftUpdateMovesTarget(t *testing.T) {
	m := newTestMLP(6)
	tgt := m.Clone()
	m.Layers[0].W[0] = 10
	tgt.Layers[0].W[0] = 0
	SoftUpdate(tgt, m, 0.1)
	if math.Abs(tgt.Layers[0].W[0]-1) > 1e-12 {
		t.Fatalf("soft update gave %v, want 1", tgt.Layers[0].W[0])
	}
	SoftUpdate(tgt, m, 1)
	if tgt.Layers[0].W[0] != 10 {
		t.Fatal("tau=1 should copy")
	}
}

func TestClipNorm(t *testing.T) {
	m := newTestMLP(8)
	g := NewGrads(m)
	for i := range g.W[0] {
		g.W[0][i] = 100
	}
	g.ClipNorm(1)
	var sq float64
	for i := range g.W {
		for _, v := range g.W[i] {
			sq += v * v
		}
	}
	if math.Sqrt(sq) > 1.0001 {
		t.Fatalf("clip failed: norm %v", math.Sqrt(sq))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := newTestMLP(10)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, -0.4, 0.6}
	a, b := m.ForwardTrace(x).Output(), back.ForwardTrace(x).Output()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip output differs: %v vs %v", a, b)
		}
	}
}

func TestJSONRejectsCorruptShapes(t *testing.T) {
	bad := []string{
		`{"layers":[]}`,
		`{"layers":[{"in":2,"out":1,"act":0,"w":[1,2,3],"b":[0]}]}`,                                            // |w| != in*out
		`{"layers":[{"in":2,"out":1,"act":0,"w":[1,2],"b":[0,0]}]}`,                                            // |b| != out
		`{"layers":[{"in":2,"out":1,"act":0,"w":[1,2],"b":[0]},{"in":3,"out":1,"act":0,"w":[1,2,3],"b":[0]}]}`, // chain mismatch
		`{"layers":[{"in":2,"out":1,"act":7,"w":[1,2],"b":[0]}]}`,                                              // unknown activation
		`{"layers":[{"in":2,"out":1,"act":-1,"w":[1,2],"b":[0]}]}`,                                             // unknown activation
	}
	for i, s := range bad {
		var m MLP
		if err := json.Unmarshal([]byte(s), &m); err == nil {
			t.Errorf("corrupt network %d accepted", i)
		}
	}
}

func TestActivationBounds(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		v := append([]float64(nil), raw...)
		for i := range v {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
		}
		tanhed := append([]float64(nil), v...)
		Tanh.apply(tanhed)
		sig := append([]float64(nil), v...)
		Sigmoid.apply(sig)
		rel := append([]float64(nil), v...)
		ReLU.apply(rel)
		for i := range v {
			if tanhed[i] < -1 || tanhed[i] > 1 {
				return false
			}
			if sig[i] < 0 || sig[i] > 1 {
				return false
			}
			if rel[i] < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewMLPPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shape did not panic")
		}
	}()
	NewMLP(simcore.NewRNG(1), []int{3}, nil)
}

func TestDeterministicInit(t *testing.T) {
	a := newTestMLP(42)
	b := newTestMLP(42)
	x := []float64{1, 2, 3}
	oa, ob := a.ForwardTrace(x).Output(), b.ForwardTrace(x).Output()
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same-seed networks differ")
		}
	}
}
