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
