//go:build !purego

package nn

// useAVX is decided once, at package init, from what the machine reports:
// CPUID.1:ECX says the CPU has AVX and the OS uses XSAVE, and XCR0 says the
// OS saves the XMM and YMM state across context switches. There is no flag
// or environment variable; -tags purego builds the Go bodies alone.
var useAVX = cpuHasAVX()

func cpuHasAVX() bool

// The AVX bodies (gemm_amd64.s) run n elements, n a positive multiple of 4.
// A lane is one of four adjacent elements of the destination row and never
// a partial sum, and each lane does VMULPD then VADDPD — the two correctly
// rounded operations of the Go loop in the same order, never a fused
// multiply-add, which rounds once and changes bits.

//go:noescape
func axpyAVX(s float64, x, dst *float64, n int)

//go:noescape
func axpy2AVX(s0, s1 float64, x, d0, d1 *float64, n int)

//go:noescape
func axpy21AVX(s0 float64, x0 *float64, s1 float64, x1, dst *float64, n int)

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

func axpy2Vec(s0, s1 float64, x, d0, d1 []float64) int {
	n := len(d0) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	_, _ = x[n-1], d1[n-1]
	axpy2AVX(s0, s1, &x[0], &d0[0], &d1[0], n)
	return n
}

func axpy21Vec(s0 float64, x0 []float64, s1 float64, x1, dst []float64) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	_, _ = x0[n-1], x1[n-1]
	axpy21AVX(s0, &x0[0], s1, &x1[0], &dst[0], n)
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
