package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simcore"
)

// saltedVec returns n values in (-2, 2), about a quarter of them replaced by
// the values elementwise float code gets wrong first: signed zeros, NaN,
// infinities and denormals.
func saltedVec(rng *simcore.RNG, n int) []float64 {
	salt := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	}
	v := randMat(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = salt[rng.Intn(len(salt))]
		}
	}
	return v
}

// sameBits reports the first index at which a and b differ in any bit. Two
// NaNs count as equal whatever their sign and payload: when a NaN meets a
// NaN the hardware keeps the first operand's, and which operand of a
// commutative scalar multiply or add is first is the compiler's choice (the
// -race build makes the other one), so no Go body pins it.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestAxpyKernelsMatchGoBodies is the oracle for the vector kernels: the
// dispatched path (platform prefix, then the Go body over what is left) must
// equal the Go body alone bit for bit (NaN for NaN; see sameBits) at every
// length 0–67, at sub-slice offsets 0–3 (so rows start on every 8-byte
// phase of a 32-byte vector), for zero, negative-zero, unit and random
// scales, on salted inputs. The wrappers' zero-scale early-outs sit above
// this seam, so a zero scale here really multiplies. Under -tags purego, and
// on a machine without AVX, the prefix is empty and both sides are the Go
// body.
func TestAxpyKernelsMatchGoBodies(t *testing.T) {
	rng := simcore.NewRNG(20)
	scales := []float64{0, math.Copysign(0, -1), 1, rng.Range(-3, 3)}
	check := func(kernel string, n, off int, s0, s1 float64, got, want []float64) {
		t.Helper()
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s n=%d off=%d s0=%v s1=%v: element %d is %v (%#x), Go body gives %v (%#x)",
				kernel, n, off, s0, s1, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			// Each operand is a window into a longer buffer; the elements
			// outside the window are compared too, so an overrun shows.
			window := func(v []float64) []float64 { return v[off : off+n] }
			x0, x1 := saltedVec(rng, n+8), saltedVec(rng, n+8)
			d0, d1 := saltedVec(rng, n+8), saltedVec(rng, n+8)
			for _, s0 := range scales {
				got, want := cloneF64(d0), cloneF64(d0)
				axpyFrom(axpyVec(s0, window(x0), window(got)), s0, window(x0), window(got))
				axpyFrom(0, s0, window(x0), window(want))
				check("axpy", n, off, s0, 0, got, want)

				got, want = cloneF64(d0), cloneF64(d0)
				axpySetFrom(axpySetVec(s0, window(x0), window(got)), s0, window(x0), window(got))
				axpySetFrom(0, s0, window(x0), window(want))
				check("axpySet", n, off, s0, 0, got, want)

				for _, s1 := range scales {
					got, want = cloneF64(d0), cloneF64(d0)
					got1, want1 := cloneF64(d1), cloneF64(d1)
					axpy2From(axpy2Vec(s0, s1, window(x0), window(got), window(got1)), s0, s1, window(x0), window(got), window(got1))
					axpy2From(0, s0, s1, window(x0), window(want), window(want1))
					check("axpy2 d0", n, off, s0, s1, got, want)
					check("axpy2 d1", n, off, s0, s1, got1, want1)

					got, want = cloneF64(d0), cloneF64(d0)
					axpy21From(axpy21Vec(s0, window(x0), s1, window(x1), window(got)), s0, window(x0), s1, window(x1), window(got))
					axpy21From(0, s0, window(x0), s1, window(x1), window(want))
					check("axpy21", n, off, s0, s1, got, want)
				}
			}
		}
	}
}

func cloneF64(v []float64) []float64 { return append([]float64(nil), v...) }

// saltedMat returns rows×cols salted values (see saltedVec) in which only
// every fifth row, starting at row 1, keeps its NaNs and infinities; the
// other rows keep the finite salt (±0, denormals). A product of two such
// matrices then has mostly finite outputs, compared bit for bit, and a NaN
// row, landing in every lane position of a 4-row panel in turn, has to stay
// out of the other lanes.
func saltedMat(rng *simcore.RNG, rows, cols int) []float64 {
	v := saltedVec(rng, rows*cols)
	for r := 0; r < rows; r++ {
		if r%5 == 1 {
			continue
		}
		for i := r * cols; i < (r+1)*cols; i++ {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
		}
	}
	return v
}

// TestMatMulTKernelMatchesGoBody is the oracle for MatMulT's vector prefix:
// the dispatched product (4-row panels on the platform prefix, the Go body
// over the rows left) must equal the Go body alone bit for bit (NaN for NaN)
// for m 0–19 and 64, k 1–67 and across the gemmBlockK panel block (128, 130,
// 256, 300), and n 0–9 and 128, on salted inputs. dst starts as garbage with
// a guard tail: the product must overwrite exactly its m×n elements. Under
// -tags purego, and on a machine without AVX, both sides are the Go body.
func TestMatMulTKernelMatchesGoBody(t *testing.T) {
	rng := simcore.NewRNG(23)
	var ms, ks, ns []int
	for m := 0; m <= 19; m++ {
		ms = append(ms, m)
	}
	for k := 1; k <= 67; k++ {
		ks = append(ks, k)
	}
	for n := 0; n <= 9; n++ {
		ns = append(ns, n)
	}
	ms, ks, ns = append(ms, 64), append(ks, 128, 130, 256, 300), append(ns, 128)
	stale := saltedVec(rng, 64*128+4)
	for _, k := range ks {
		a, b := saltedMat(rng, 64, k), saltedMat(rng, 128, k)
		for _, m := range ms {
			for _, n := range ns {
				got, want := cloneF64(stale[:m*n+4]), cloneF64(stale[:m*n+4])
				MatMulT(got, a, b, m, k, n)
				matMulTFrom(0, want, a, b, m, k, n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("m=%d k=%d n=%d: element %d (row %d, column %d) is %v (%#x), Go body gives %v (%#x)",
						m, k, n, i, i/max(n, 1), i%max(n, 1), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestForwardBatchRowIndependence pins the property the sharded TD3 update
// stands on: a row's output does not depend on which other rows share the
// ForwardBatchInto call. MatMulT gives every output element its own serial
// accumulator in its 4-row panels and on the one-row kernel that takes the
// rows left (and in the Go body's paired-row and single-row loops where
// there is no kernel), so forwarding rows [r0, r1) alone must reproduce
// those rows of the full-batch call bit for bit — for every split of
// batches of 1–17 rows, for a 64-row batch cut at every multiple of 4 and
// into the update's 16-row shards, and for a 50-row batch in 16-row shards
// (short last shard).
func TestForwardBatchRowIndependence(t *testing.T) {
	rng := simcore.NewRNG(21)
	// Widths off the 4-column blocking on purpose: 18 in, 3 out.
	m := NewMLP(rng, []int{18, 33, 32, 3}, []Activation{ReLU, ReLU, Tanh})
	in, out := m.InputDim(), m.OutputDim()
	checkRange := func(x, full []float64, r0, r1 int, part *BatchScratch) {
		t.Helper()
		got := m.ForwardBatchInto(x[r0*in:r1*in], r1-r0, part)
		if i, ok := sameBits(got, full[r0*out:r1*out]); !ok {
			t.Fatalf("rows [%d,%d): output %d differs from the full-batch call", r0, r1, i)
		}
	}
	for rows := 1; rows <= 17; rows++ {
		x := randMat(rng, rows*in)
		full := cloneF64(m.ForwardBatchInto(x, rows, NewBatchScratch(m, rows)))
		part := NewBatchScratch(m, rows)
		for r0 := 0; r0 < rows; r0++ {
			for r1 := r0 + 1; r1 <= rows; r1++ {
				checkRange(x, full, r0, r1, part)
			}
		}
	}
	// The 64-row batch: every [r0, r1) on multiples of 4, which includes the
	// four 16-row shards.
	x := randMat(rng, 64*in)
	full := cloneF64(m.ForwardBatchInto(x, 64, NewBatchScratch(m, 64)))
	part := NewBatchScratch(m, 64)
	for r0 := 0; r0 < 64; r0 += 4 {
		for r1 := r0 + 4; r1 <= 64; r1 += 4 {
			checkRange(x, full, r0, r1, part)
		}
	}
	const shard = 16
	x = randMat(rng, 50*in)
	full = cloneF64(m.ForwardBatchInto(x, 50, NewBatchScratch(m, 50)))
	for r0 := 0; r0 < 50; r0 += shard {
		checkRange(x, full, r0, min(r0+shard, 50), part)
	}
}

// BenchmarkAxpyKernels times axpy and axpySet as dispatched on this machine
// ("vec": the AVX body on amd64) against their Go bodies, at the two row
// widths the Table 2 networks stream (16-wide input rows, 128-wide hidden
// rows), and MatMulT at the forward products of one 16-row update shard
// (input, hidden and the actor's 2-wide output layer, which stays on dot)
// and of one served decision's row (input and hidden, on the one-row
// kernel). axpy2 and axpy21 have no vector body (BenchmarkBackwardShard
// times the row kernels that replaced them). Under -tags purego both
// columns are the Go body.
func BenchmarkAxpyKernels(b *testing.B) {
	rng := simcore.NewRNG(22)
	for _, sh := range [][3]int{{16, 16, 128}, {16, 128, 128}, {16, 128, 2}, {1, 16, 128}, {1, 128, 128}} {
		m, k, n := sh[0], sh[1], sh[2]
		x, w, dst := randMat(rng, m*k), randMat(rng, n*k), make([]float64, m*n)
		b.Run(fmt.Sprintf("MatMulT/%dx%d->%d/vec", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulT(dst, x, w, m, k, n)
			}
		})
		b.Run(fmt.Sprintf("MatMulT/%dx%d->%d/go", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulTFrom(0, dst, x, w, m, k, n)
			}
		})
	}
	for _, n := range []int{16, 128} {
		x0, d0 := randMat(rng, n), randMat(rng, n)
		const s0 = 1.0000001 // non-zero: the wrapper's zero-skip stays out of the timing
		kernels := []struct {
			name      string
			vec, body func()
		}{
			{"axpy", func() { axpy(s0, x0, d0) }, func() { axpyFrom(0, s0, x0, d0) }},
			{"axpySet", func() { axpySet(s0, x0, d0) }, func() { axpySetFrom(0, s0, x0, d0) }},
		}
		for _, k := range kernels {
			for _, impl := range []struct {
				name string
				fn   func()
			}{{"vec", k.vec}, {"go", k.body}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, impl.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						impl.fn()
					}
				})
			}
		}
	}
}
