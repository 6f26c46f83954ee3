package nn

import (
	"math"
	"testing"

	"repro/internal/simcore"
)

// naiveMatMul is the reference three-loop product for kernel tests.
func naiveMatMul(a, b []float64, m, k, n int, ta bool) []float64 {
	dst := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				bv := b[p*n+j]
				if ta {
					bv = b[j*k+p] // b stored n×k, used transposed
				}
				s += a[i*k+p] * bv
			}
			dst[i*n+j] = s
		}
	}
	return dst
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randMat(rng *simcore.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Range(-2, 2)
	}
	return v
}

func TestMatMulKernels(t *testing.T) {
	rng := simcore.NewRNG(41)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 64, 32}, {64, 300, 17}, {3, 257, 2}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		bt := randMat(rng, n*k)

		dst := make([]float64, m*n)
		MatMul(dst, a, b, m, k, n)
		if d := maxAbsDiff(dst, naiveMatMul(a, b, m, k, n, false)); d > 1e-9 {
			t.Fatalf("MatMul %v: max diff %g", sh, d)
		}

		MatMulT(dst, a, bt, m, k, n)
		if d := maxAbsDiff(dst, naiveMatMul(a, bt, m, k, n, true)); d > 1e-9 {
			t.Fatalf("MatMulT %v: max diff %g", sh, d)
		}

		// MatMulTAcc: dst[k×n] += aᵀ[m×k]ᵀ · b2[m×n]; run twice to cover the
		// accumulate semantics.
		b2 := randMat(rng, m*n)
		acc := make([]float64, k*n)
		MatMulTAcc(acc, a, b2, m, k, n)
		MatMulTAcc(acc, a, b2, m, k, n)
		want := make([]float64, k*n)
		for r := 0; r < m; r++ {
			for i := 0; i < k; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += 2 * a[r*k+i] * b2[r*n+j]
				}
			}
		}
		if d := maxAbsDiff(acc, want); d > 1e-9 {
			t.Fatalf("MatMulTAcc %v: max diff %g", sh, d)
		}

		// MatMulTSet overwrites: seed dst with garbage, expect half of the
		// doubled accumulation reference.
		for i := range acc {
			acc[i] = 1e9
		}
		MatMulTSet(acc, a, b2, m, k, n)
		for i := range want {
			want[i] /= 2
		}
		if d := maxAbsDiff(acc, want); d > 1e-9 {
			t.Fatalf("MatMulTSet %v: max diff %g", sh, d)
		}
	}
}

func TestAddBiasRowsAndColSum(t *testing.T) {
	rng := simcore.NewRNG(42)
	rows, n := 5, 7
	m := randMat(rng, rows*n)
	bias := randMat(rng, n)
	got := append([]float64(nil), m...)
	AddBiasRows(got, bias, rows, n)
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			if want := m[r*n+j] + bias[j]; got[r*n+j] != want {
				t.Fatalf("AddBiasRows[%d,%d] = %v, want %v", r, j, got[r*n+j], want)
			}
		}
	}
	sums := make([]float64, n)
	ColSumAcc(sums, m, rows, n)
	for j := 0; j < n; j++ {
		var want float64
		for r := 0; r < rows; r++ {
			want += m[r*n+j]
		}
		if math.Abs(sums[j]-want) > 1e-12 {
			t.Fatalf("ColSumAcc[%d] = %v, want %v", j, sums[j], want)
		}
	}
	set := make([]float64, n)
	for j := range set {
		set[j] = 1e9 // ColSumSet must overwrite, not accumulate
	}
	ColSumSet(set, m, rows, n)
	if d := maxAbsDiff(set, sums); d > 1e-12 {
		t.Fatalf("ColSumSet differs from ColSumAcc into zeros by %g", d)
	}
}

// TestReLUApplyRowsMatchesApply: the batched ReLU must agree with the scalar
// one on the edges of the float range, NaN of either sign included — x86's
// default NaN (0·Inf, Inf−Inf) has its sign bit set, and a sign-bit mask
// that cleared it would turn a poisoned row into a finite one. A NaN keeps
// its bits; zeros compare by value (applyRows writes −0 as +0, apply keeps
// it), every other finite output by bits.
func TestReLUApplyRowsMatchesApply(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000000)
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1.5, 1.5},
		{-1.5, 0},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{-math.SmallestNonzeroFloat64, 0},
		{math.MaxFloat64, math.MaxFloat64},
		{-math.MaxFloat64, 0},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{math.NaN(), math.NaN()},
		{negNaN, negNaN},
		{math.Float64frombits(0xfff0000000000001), math.Float64frombits(0xfff0000000000001)},
	}
	for _, c := range cases {
		rows, scalar := []float64{c.in}, []float64{c.in}
		ReLU.applyRows(rows)
		ReLU.apply(scalar)
		got := rows[0]
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("applyRows(%v [%#x]) = %v [%#x], want %v [%#x]", c.in, math.Float64bits(c.in),
				got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
		if got != scalar[0] && !(math.IsNaN(got) && math.IsNaN(scalar[0])) {
			t.Errorf("ReLU(%v [%#x]): applyRows %v, apply %v", c.in, math.Float64bits(c.in), got, scalar[0])
		}
	}
	// The poisoned state end to end: (+Inf, −Inf) through all-ones weights is
	// Inf−Inf, the negative default NaN, which both forwards must return.
	m := NewMLP(simcore.NewRNG(1), []int{2, 1}, []Activation{ReLU})
	m.Layers[0].W[0], m.Layers[0].W[1] = 1, 1
	x := []float64{math.Inf(1), math.Inf(-1)}
	one := m.ForwardInto(x, NewScratch(m))[0]
	batch := m.ForwardBatchInto(x, 1, NewBatchScratch(m, 1))[0]
	if !math.IsNaN(one) || !math.IsNaN(batch) {
		t.Fatalf("ReLU net on (+Inf, -Inf): ForwardInto %v, ForwardBatchInto %v, want NaN from both", one, batch)
	}
}

// TestBackwardBatchVariants checks the lean backward entry points against
// the accumulating reference: BackwardBatchParams must match a zeroed
// BackwardBatchInto within 1e-9 (its overwrite kernel pairs sample rows on
// a different boundary, so the last ulp may differ) and be idempotent,
// while BackwardBatchInput must return bit-identical input gradients (that
// path shares every kernel call with the reference).
func TestBackwardBatchVariants(t *testing.T) {
	for seed := uint64(51); seed <= 60; seed++ {
		rng := simcore.NewRNG(seed)
		m := randomBatchMLP(rng)
		rows := 1 + int(rng.Intn(33))
		in, out := m.InputDim(), m.OutputDim()
		x := randMat(rng, rows*in)
		dOut := randMat(rng, rows*out)

		tr := NewBatchTrace(m, rows)
		m.ForwardBatchTraceInto(x, rows, tr)
		bs := NewBatchScratch(m, rows)

		ref := NewGrads(m)
		dInRef := append([]float64(nil), m.BackwardBatchInto(tr, rows, dOut, ref, bs)...)

		got := NewGrads(m)
		m.BackwardBatchParams(tr, rows, dOut, got, bs)
		// Run twice: Params has overwrite semantics, so the second call must
		// not double anything.
		m.BackwardBatchParams(tr, rows, dOut, got, bs)
		for li := range ref.W {
			if d := maxAbsDiff(got.W[li], ref.W[li]); d > 1e-9 {
				t.Fatalf("seed %d layer %d: Params W gradient differs by %g", seed, li, d)
			}
			if d := maxAbsDiff(got.B[li], ref.B[li]); d > 1e-9 {
				t.Fatalf("seed %d layer %d: Params B gradient differs by %g", seed, li, d)
			}
		}

		dIn := m.BackwardBatchInput(tr, rows, dOut, bs)
		if d := maxAbsDiff(dIn, dInRef); d != 0 {
			t.Fatalf("seed %d: Input-only dIn differs by %g", seed, d)
		}
	}
}

// randomBatchMLP builds a random-shape MLP mixing all activations.
func randomBatchMLP(rng *simcore.RNG) *MLP {
	depth := 2 + int(rng.Intn(3))
	sizes := make([]int, depth+1)
	acts := make([]Activation, depth)
	for i := range sizes {
		sizes[i] = 1 + int(rng.Intn(40))
	}
	for i := range acts {
		acts[i] = Activation(rng.Intn(4))
	}
	return NewMLP(rng.Split(77), sizes, acts)
}

// TestForwardBatchMatchesPerSample is the batched-vs-scalar equivalence
// property: across random shapes, activations, and seeds, the batched
// forward must reproduce the per-sample ForwardInto reference within 1e-9.
func TestForwardBatchMatchesPerSample(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := simcore.NewRNG(seed)
		m := randomBatchMLP(rng)
		rows := 1 + int(rng.Intn(65))
		in, out := m.InputDim(), m.OutputDim()
		x := randMat(rng, rows*in)

		bs := NewBatchScratch(m, rows)
		got := m.ForwardBatchInto(x, rows, bs)

		s := NewScratch(m)
		for r := 0; r < rows; r++ {
			want := m.ForwardInto(x[r*in:(r+1)*in], s)
			if d := maxAbsDiff(got[r*out:(r+1)*out], want); d > 1e-9 {
				t.Fatalf("seed %d row %d: batch forward differs by %g", seed, r, d)
			}
		}

		// The traced variant must agree exactly with the untraced one and own
		// its input.
		tr := NewBatchTrace(m, rows)
		m.ForwardBatchTraceInto(x, rows, tr)
		if d := maxAbsDiff(tr.Output()[:rows*out], got[:rows*out]); d != 0 {
			t.Fatalf("seed %d: traced batch forward differs by %g", seed, d)
		}
		x[0] = 1e9
		if tr.acts[0][0] == 1e9 {
			t.Fatalf("seed %d: batch trace aliases caller input", seed)
		}
	}
}

// TestBackwardBatchMatchesPerSample: the batched backward's parameter
// gradients must equal the sum of per-sample Backward gradients, and
// its input-gradient rows must match per-sample input gradients, within
// 1e-9 across random shapes/activations/seeds.
func TestBackwardBatchMatchesPerSample(t *testing.T) {
	for seed := uint64(21); seed <= 40; seed++ {
		rng := simcore.NewRNG(seed)
		m := randomBatchMLP(rng)
		rows := 1 + int(rng.Intn(33))
		in, out := m.InputDim(), m.OutputDim()
		x := randMat(rng, rows*in)
		dOut := randMat(rng, rows*out)

		// Batched pass.
		btr := NewBatchTrace(m, rows)
		m.ForwardBatchTraceInto(x, rows, btr)
		bg := NewGrads(m)
		bs := NewBatchScratch(m, rows)
		dIn := m.BackwardBatchInto(btr, rows, dOut, bg, bs)

		// Per-sample reference, gradients summed over the batch.
		sg := NewGrads(m)
		for r := 0; r < rows; r++ {
			tr := m.ForwardTrace(x[r*in : (r+1)*in])
			dInWant := m.Backward(tr, dOut[r*out:(r+1)*out], sg)
			if d := maxAbsDiff(dIn[r*in:(r+1)*in], dInWant); d > 1e-9 {
				t.Fatalf("seed %d row %d: input gradient differs by %g", seed, r, d)
			}
		}
		for li := range sg.W {
			if d := maxAbsDiff(bg.W[li], sg.W[li]); d > 1e-9 {
				t.Fatalf("seed %d layer %d: W gradient differs by %g", seed, li, d)
			}
			if d := maxAbsDiff(bg.B[li], sg.B[li]); d > 1e-9 {
				t.Fatalf("seed %d layer %d: B gradient differs by %g", seed, li, d)
			}
		}
	}
}

// TestBatchTraceSliceViews verifies that row-range views share storage with
// the parent trace and backpropagating shard-by-shard reproduces the
// full-batch gradients (the decomposition the sharded TD3 update relies
// on).
func TestBatchTraceSliceViews(t *testing.T) {
	rng := simcore.NewRNG(99)
	m := NewMLP(rng, []int{6, 16, 3}, []Activation{ReLU, Tanh})
	const rows = 12
	x := randMat(rng, rows*6)
	dOut := randMat(rng, rows*3)

	tr := NewBatchTrace(m, rows)
	m.ForwardBatchTraceInto(x, rows, tr)
	full := NewGrads(m)
	bs := NewBatchScratch(m, rows)
	m.BackwardBatchInto(tr, rows, dOut, full, bs)

	shard := NewGrads(m)
	for r0 := 0; r0 < rows; r0 += 5 {
		r1 := r0 + 5
		if r1 > rows {
			r1 = rows
		}
		v := tr.Slice(r0, r1)
		if v.Rows() != r1-r0 {
			t.Fatalf("view rows %d, want %d", v.Rows(), r1-r0)
		}
		m.BackwardBatchInto(v, r1-r0, dOut[r0*3:r1*3], shard, bs)
	}
	for li := range full.W {
		if d := maxAbsDiff(shard.W[li], full.W[li]); d > 1e-9 {
			t.Fatalf("layer %d: sharded W gradient differs by %g", li, d)
		}
		if d := maxAbsDiff(shard.B[li], full.B[li]); d > 1e-9 {
			t.Fatalf("layer %d: sharded B gradient differs by %g", li, d)
		}
	}
}

// TestBatchKernelsAllocFree pins the steady-state allocation contract of
// the batched pipeline.
func TestBatchKernelsAllocFree(t *testing.T) {
	m := policySizedMLP()
	const rows = 64
	x := make([]float64, rows*m.InputDim())
	dOut := make([]float64, rows*m.OutputDim())
	bs := NewBatchScratch(m, rows)
	tr := NewBatchTrace(m, rows)
	g := NewGrads(m)
	avg := testing.AllocsPerRun(50, func() {
		m.ForwardBatchTraceInto(x, rows, tr)
		g.Zero()
		m.BackwardBatchInto(tr, rows, dOut, g, bs)
		m.ForwardBatchInto(x, rows, bs)
	})
	if avg != 0 {
		t.Fatalf("batched forward/backward allocates %v per run, want 0", avg)
	}
}
