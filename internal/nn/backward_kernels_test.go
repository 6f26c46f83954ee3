package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simcore"
)

// reluDelta returns a rows×cols salted matrix (see saltedMat) shaped like a
// ReLU-masked delta: about half its entries are ±0, and every seventh row
// (from row 2) is zero throughout.
func reluDelta(rng *simcore.RNG, rows, cols int) []float64 {
	d := saltedMat(rng, rows, cols)
	for r := 0; r < rows; r++ {
		for j := r * cols; j < (r+1)*cols; j++ {
			if r%7 == 2 || rng.Intn(2) == 0 {
				d[j] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
	return d
}

// backwardShapes are the (m, k, n) the backward oracles cover: m 0–17 and
// 64, k 1–9, 16, 127, 128 and 300 (past gemmBlockK and past MatMul's L1
// panel, so a chain continues from dst), n 0–9, 16, 18 and 128 (every
// n mod 4 tail) and 300 (past the dW kernel's 256-column chunk).
func backwardShapes() (ms, ks, ns []int) {
	for m := 0; m <= 17; m++ {
		ms = append(ms, m)
	}
	for k := 1; k <= 9; k++ {
		ks = append(ks, k)
	}
	for n := 0; n <= 9; n++ {
		ns = append(ns, n)
	}
	return append(ms, 64), append(ks, 16, 127, 128, 300), append(ns, 16, 18, 128, 300)
}

func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s: element %d is %v (%#x), Go body gives %v (%#x)",
			what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// TestMatMulKernelMatchesGoBody is the oracle for MatMul's vector prefix
// (the input-gradient product dX = δ·W): the dispatched product must equal
// the Go body alone bit for bit (NaN for NaN) over backwardShapes, with a
// ReLU-masked, salted δ (±0, NaN, ±Inf, all-zero rows) and a salted W. dst
// starts as garbage with a guard tail: the product must overwrite exactly
// its m×n elements. Under -tags purego, and on a machine without AVX, both
// sides are the Go body.
func TestMatMulKernelMatchesGoBody(t *testing.T) {
	rng := simcore.NewRNG(43)
	ms, ks, ns := backwardShapes()
	stale := saltedVec(rng, 64*300+4)
	for _, k := range ks {
		a := reluDelta(rng, 64, k)
		for _, n := range ns {
			b := saltedMat(rng, k, n)
			for _, m := range ms {
				got, want := cloneF64(stale[:m*n+4]), cloneF64(stale[:m*n+4])
				MatMul(got, a, b, m, k, n)
				matMulGo(want, a, b, m, k, n)
				checkBits(t, fmt.Sprintf("MatMul m=%d k=%d n=%d", m, k, n), got, want)
			}
		}
	}
}

// TestMatMulTAccKernelMatchesGoBody is the same oracle for the
// weight-gradient products dW (+)= δᵀ·X, MatMulTSet and MatMulTAcc: m is the
// batch (the reduction), k the dW rows and n its columns. Acc continues from
// a salted dst; Set overwrites garbage, including where the whole chain is
// its first product. Its last case pins the −0 that Set assigns from a +0
// scale times a negative input, which no later zero row may turn into +0.
func TestMatMulTAccKernelMatchesGoBody(t *testing.T) {
	rng := simcore.NewRNG(44)
	ms, ks, ns := backwardShapes()
	for _, k := range ks {
		a := reluDelta(rng, 64, k)
		for _, n := range ns {
			x := saltedMat(rng, 64, n)
			for _, m := range ms {
				d := saltedVec(rng, k*n+4)
				got, want := cloneF64(d), cloneF64(d)
				MatMulTSet(got, a, x, m, k, n)
				matMulTAccGo(want, a, x, m, k, n, true)
				checkBits(t, fmt.Sprintf("MatMulTSet m=%d k=%d n=%d", m, k, n), got, want)

				got, want = cloneF64(d), cloneF64(d)
				MatMulTAcc(got, a, x, m, k, n)
				matMulTAccGo(want, a, x, m, k, n, false)
				checkBits(t, fmt.Sprintf("MatMulTAcc m=%d k=%d n=%d", m, k, n), got, want)
			}
		}
	}
	const m, k, n = 5, 3, 9
	a := make([]float64, m*k) // all +0: row 0 assigns +0·x, the rest skip
	x := make([]float64, m*n)
	for i := range x {
		x[i] = -1 - float64(i)
	}
	got := saltedVec(rng, k*n)
	MatMulTSet(got, a, x, m, k, n)
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("MatMulTSet of a zero δ over negative inputs: element %d is %v, want -0", i, v)
		}
	}
}

// TestAdamKernelMatchesGoBody is the oracle for the Adam step's vector
// prefix: the dispatched stepSlice must leave the parameters and both
// moments equal to the Go body's, bit for bit (NaN for NaN), at every length
// 0–67 and sub-slice offsets 0–3, early (t = 1) and late (t = 1000) in the
// bias correction, on salted gradients (±0, NaN, ±Inf, denormals) and
// moments.
func TestAdamKernelMatchesGoBody(t *testing.T) {
	rng := simcore.NewRNG(45)
	a := &Adam{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for _, step := range []float64{1, 1000} {
		c1, c2 := 1-math.Pow(a.Beta1, step), 1-math.Pow(a.Beta2, step)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				w := func(v []float64) []float64 { return v[off : off+n] }
				p, g, m := saltedVec(rng, n+8), saltedVec(rng, n+8), saltedVec(rng, n+8)
				v := randMat(rng, n+8)
				for i := range v {
					v[i] *= v[i] // second moments are squares…
				}
				v[rng.Intn(n+8)] = -1 // …but a negative one must NaN alike
				gp, gm, gv := cloneF64(p), cloneF64(m), cloneF64(v)
				wp, wm, wv := cloneF64(p), cloneF64(m), cloneF64(v)
				a.stepSlice(w(gp), w(g), w(gm), w(gv), c1, c2)
				a.stepFrom(0, w(wp), w(g), w(wm), w(wv), c1, c2)
				what := fmt.Sprintf("Adam t=%v n=%d off=%d", step, n, off)
				checkBits(t, what+" p", gp, wp)
				checkBits(t, what+" m", gm, wm)
				checkBits(t, what+" v", gv, wv)
			}
		}
	}
}

// BenchmarkBackwardShard times the two backward products of one 16-row
// update shard through a 128→128 hidden layer (shardRows in internal/rl),
// as dispatched on this machine ("vec") against their Go bodies: dX =
// δ·W (MatMul) and dW = δᵀ·X (MatMulTSet), δ ReLU-masked (half zero) the
// way the update's is. Under -tags purego both columns are the Go body.
func BenchmarkBackwardShard(b *testing.B) {
	const rows, in, out = 16, 128, 128
	rng := simcore.NewRNG(46)
	delta, x, w := randMat(rng, rows*out), randMat(rng, rows*in), randMat(rng, out*in)
	for i := range delta {
		if rng.Intn(2) == 0 {
			delta[i] = 0
		}
	}
	dx, dw := make([]float64, rows*in), make([]float64, out*in)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"dX/vec", func() { MatMul(dx, delta, w, rows, out, in) }},
		{"dX/go", func() { matMulGo(dx, delta, w, rows, out, in) }},
		{"dW/vec", func() { MatMulTSet(dw, delta, x, rows, out, in) }},
		{"dW/go", func() { matMulTAccGo(dw, delta, x, rows, out, in, true) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}
}
