//go:build !purego

package nn

import "math"

// useAVX is decided once, at package init, from what the machine reports:
// CPUID.1:ECX says the CPU has AVX and the OS uses XSAVE, and XCR0 says the
// OS saves the XMM and YMM state across context switches. There is no flag
// or environment variable; -tags purego builds the Go bodies alone.
var useAVX = cpuHasAVX()

func cpuHasAVX() bool

// The axpy AVX bodies (gemm_amd64.s) run n elements, n a positive multiple
// of 4. In every AVX body a lane is one element of the destination (or one
// batch row of it) and never a partial sum, and each lane does the correctly
// rounded operations of the Go body in the same order — VMULPD then VADDPD
// for a multiply-add, never a fused multiply-add, which rounds once and
// changes bits.

//go:noescape
func axpyAVX(s float64, x, dst *float64, n int)

//go:noescape
func axpySetAVX(s float64, x, dst *float64, n int)

// matMulT4AVX runs one 4-row panel of MatMulT over n4 columns (a positive
// multiple of 4) and kc reductions. Its lane is one of the four batch rows:
// ap holds the panel k-major (ap[p*4+r] = a[i+r][k0+p]), b[j][p] is
// broadcast, and each lane does VMULPD then VADDPD into its own accumulator
// in p order — the Go body's serial chain. The accumulator starts at +0, or
// at dst's value when cont is set.
//
//go:noescape
func matMulT4AVX(dst *float64, ldd int, ap, b *float64, ldb, kc, n4 int, cont bool)

// matMulRowAVX runs one row of MatMul over one block of reductions: the cnt
// nonzero terms at nz, each a scale a[i][p] and the W row it multiplies,
// summed into columns [0, n) (n > 0; the n mod 4 last under a VMASKMOVPD
// mask) in term order, from +0 or, with cont, from dst. A lane is one
// column and keeps its accumulator in a register across the terms.
//
//go:noescape
func matMulRowAVX(dst *float64, nz *nzTerm, cnt, n int, cont bool)

// matMulTRowAVX runs one dW row of MatMulTAcc/Set over one block of sample
// rows: the cnt pair terms at terms, each added to columns [0, n) (n > 0;
// the n mod 4 last under a mask) as dst + (s0·x0 + s1·x1), in term order,
// from dst or, with set, from the first term's s0·x0 alone. A lane is one
// column and keeps its accumulator in a register across the terms.
//
//go:noescape
func matMulTRowAVX(dst *float64, terms *pairTerm, cnt, n int, set bool)

// adamAVX runs the Adam step over n elements (n a positive multiple of 4),
// a lane per element, with ob1 = 1−b1 and ob2 = 1−b2: the Go body's
// VMULPD/VADDPD/VDIVPD/VSQRTPD/VSUBPD in its order.
//
//go:noescape
func adamAVX(p, grad, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps float64)

// rowMulTAVX runs the one-row product over n4 columns (a positive multiple
// of 4) and k > 0 reductions, continuing from dst. Its lane is one of four
// output columns: w is read in place, in the Dense Out×In layout, a 4×2
// block at a time transposed on the way in (w[j][p] for four j), times the
// broadcast x[p], and each lane does VMULPD then VADDPD in p order — the Go
// body's serial chain.
//
//go:noescape
func rowMulTAVX(dst, x, w *float64, k, n4 int)

// The xVec prefixes check the operand lengths the Go bodies would have
// checked element by element, then hand raw pointers to the assembly.

func axpyVec(s float64, x, dst []float64) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	_ = x[n-1]
	axpyAVX(s, &x[0], &dst[0], n)
	return n
}

func axpySetVec(s float64, x, dst []float64) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	_ = x[n-1]
	axpySetAVX(s, &x[0], &dst[0], n)
	return n
}

// rowMulTAddVec runs the one-row product's whole 4-output groups,
// [0, len(dst)&^3), and returns how many outputs it ran.
func rowMulTAddVec(dst, x, w []float64, k int) int {
	n4 := len(dst) &^ 3
	if !useAVX || n4 == 0 || k == 0 {
		return 0
	}
	_, _ = x[k-1], w[n4*k-1]
	rowMulTAVX(&dst[0], &x[0], &w[0], k, n4)
	return n4
}

// matMulTVec runs all of MatMulT's rows and returns m: whole 4-row panels,
// [0, m&^3), then each row left on the one-row kernel. The n mod 4 tail
// columns keep dot, as in the Go body. With fewer than four columns it runs
// nothing.
func matMulTVec(dst, a, b []float64, m, k, n int) int {
	m4, n4 := m&^3, n&^3
	if !useAVX || m == 0 || n4 == 0 || k == 0 {
		return 0
	}
	_, _, _ = dst[m*n-1], a[m*k-1], b[n*k-1]
	if m4 > 0 {
		matMulTPanels(dst, a, b, m4, k, n)
	}
	for i := m4; i < m; i++ {
		drow, arow := dst[i*n:(i+1)*n], a[i*k:(i+1)*k]
		clearSlice(drow[:n4])
		rowMulTAVX(&drow[0], &arow[0], &b[0], k, n4)
		dotCols(n4, drow, arow, b)
	}
	return m
}

// matMulTPanels runs MatMulT's first m4 rows (a multiple of 4) in 4-row
// panels. Each panel is packed k-major into a stack buffer one gemmBlockK
// block at a time; a later block continues the accumulators the kernel
// stored. The buffer lives here, not in matMulTVec, so a call of one to three
// rows does not zero its 8 KiB.
func matMulTPanels(dst, a, b []float64, m4, k, n int) {
	n4 := n &^ 3
	var ap [4 * gemmBlockK]float64
	for i := 0; i < m4; i += 4 {
		a0 := a[i*k : (i+1)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k : (i+4)*k]
		for k0 := 0; k0 < k; k0 += gemmBlockK {
			k1 := min(k0+gemmBlockK, k)
			panel := ap[:4*(k1-k0)]
			for p := k0; p < k1; p++ {
				q := panel[4*(p-k0) : 4*(p-k0)+4 : 4*(p-k0)+4]
				q[0], q[1], q[2], q[3] = a0[p], a1[p], a2[p], a3[p]
			}
			matMulT4AVX(&dst[i*n], n, &ap[0], &b[k0], k, k1-k0, n4, k0 > 0)
		}
		for j := n4; j < n; j++ {
			bcol := b[j*k : (j+1)*k]
			dst[i*n+j] = dot(a0, bcol)
			dst[(i+1)*n+j] = dot(a1, bcol)
			dst[(i+2)*n+j] = dot(a2, bcol)
			dst[(i+3)*n+j] = dot(a3, bcol)
		}
	}
}

// nzTerm is one nonzero term of a MatMul row: the scale a[i][p] and the
// first element of the b row it multiplies.
type nzTerm struct {
	s float64
	x *float64
}

// matMulPanelBytes bounds the W panel one MatMul block reads, so that it
// stays in L1 (48 KiB on the machines measured) across the rows of a batch:
// 32 W rows of 128 columns.
const matMulPanelBytes = 32 << 10

// matMulVec runs the whole MatMul product and reports whether it did (it
// does nothing for an empty one). The reductions go in
// blocks of W rows that fit matMulPanelBytes; each row lists the nonzero
// entries of its a row in the block, in p order, and runs them on the row
// kernel (a later block continues from dst).
func matMulVec(dst, a, b []float64, m, k, n int) bool {
	if !useAVX || m == 0 || n == 0 || k == 0 {
		return false
	}
	_, _, _ = dst[m*n-1], a[m*k-1], b[k*n-1]
	pb := min(gemmBlockK, max(1, matMulPanelBytes/(8*n)))
	var nz [gemmBlockK]nzTerm
	for p0 := 0; p0 < k; p0 += pb {
		p1 := min(p0+pb, k)
		for i := 0; i < m; i++ {
			// Every entry is written and the zeros (either sign) are not
			// counted, so the next entry overwrites them: no branch for
			// the ReLU mask's coin flips to mispredict.
			c := 0
			for p, s := range a[i*k+p0 : i*k+p1] {
				nz[c] = nzTerm{s, &b[(p0+p)*n]}
				if math.Float64bits(s)<<1 != 0 {
					c++
				}
			}
			if c > 0 || p0 == 0 {
				matMulRowAVX(&dst[i*n], &nz[0], c, n, p0 > 0)
			}
		}
	}
	return true
}

// pairTerm is one term of a dW row: dst + (s0·x0 + s1·x1), x0 and x1 the
// first elements of two sample rows of b (or of their column chunks).
type pairTerm struct {
	s0 float64
	x0 *float64
	s1 float64
	x1 *float64
}

// negZeros stands in for the half of a pair term whose scale is zero (and
// for the missing half of an odd last row): 1·(−0) is −0, and t + (−0) and
// (−0) + t are t for every t, NaN and ±0 included, so a term with one such
// half is d + s·x bit for bit. Its length bounds the column chunk
// matMulTAccVec hands the row kernel.
var negZeros = func() (z [gemmBlockK]float64) {
	for i := range z {
		z[i] = math.Copysign(0, -1)
	}
	return z
}()

// matMulTRows is how many sample rows one pass of matMulTAccVec walks: 32
// rows of 128 columns of b are the 32 KiB that stay in L1 across the dW rows.
const matMulTRows = 32

// matMulTAccVec runs the whole MatMulTAcc product, or with set MatMulTSet's,
// and reports whether it did (it does nothing without a sample row). For
// each dW row i it lists the terms of the Go body's chain from column i of
// a — with set, row 0's assignment first; then the sample rows in pairs, a
// zero scale's half replaced by 1·negZeros and a pair of zero scales left
// out; then an odd last row, paired with negZeros, unless its scale is zero
// — and runs them on the row kernel, a block of matMulTRows sample rows at a
// time (a later block continues from dst).
func matMulTAccVec(dst, a, b []float64, m, k, n int, set bool) bool {
	if !useAVX || m == 0 || n == 0 || k == 0 {
		return false
	}
	_, _, _ = dst[k*n-1], a[m*k-1], b[m*n-1]
	one, neg := math.Float64bits(1), &negZeros[0]
	var terms [matMulTRows/2 + 1]pairTerm
	for c0 := 0; c0 < n; c0 += len(negZeros) {
		nc := min(n-c0, len(negZeros))
		for r0 := 0; r0 < m; {
			first := set && r0 == 0
			r1 := min(m, r0+matMulTRows)
			if first {
				r1 = min(m, 1+matMulTRows)
			}
			for i := 0; i < k; i++ {
				t, r := 0, r0
				if first {
					terms[0] = pairTerm{s0: a[i], x0: &b[c0]}
					t, r = 1, 1
				}
				// As in matMulVec, every term is written and a pair of
				// zeros is not counted; the half selects compile to
				// conditional moves.
				for ; r+2 <= r1; r += 2 {
					s0, s1 := math.Float64bits(a[r*k+i]), math.Float64bits(a[(r+1)*k+i])
					x0, x1 := &b[r*n+c0], &b[(r+1)*n+c0]
					live := (s0|s1)<<1 != 0
					if s0<<1 == 0 {
						s0, x0 = one, neg
					}
					if s1<<1 == 0 {
						s1, x1 = one, neg
					}
					terms[t] = pairTerm{math.Float64frombits(s0), x0, math.Float64frombits(s1), x1}
					if live {
						t++
					}
				}
				if r < r1 && a[r*k+i] != 0 {
					terms[t] = pairTerm{a[r*k+i], &b[r*n+c0], 1, neg}
					t++
				}
				if t > 0 {
					matMulTRowAVX(&dst[i*n+c0], &terms[0], t, nc, first)
				}
			}
			r0 = r1
		}
	}
	return true
}

// stepVec runs the Adam step's whole 4-element groups, [0, len(p)&^3), and
// returns how many elements it ran.
func (a *Adam) stepVec(p, g, m, v []float64, c1, c2 float64) int {
	n := len(p) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	_, _, _ = g[n-1], m[n-1], v[n-1]
	adamAVX(&p[0], &g[0], &m[0], &v[0], n, a.Beta1, 1-a.Beta1, a.Beta2, 1-a.Beta2, c1, c2, a.LR, a.Epsilon)
	return n
}
