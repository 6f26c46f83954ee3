//go:build !amd64 || purego

package nn

// No vector kernels in this build: every prefix is empty and the Go bodies
// in gemm.go run the whole row.

func axpyVec(s float64, x, dst []float64) int { return 0 }

func axpySetVec(s float64, x, dst []float64) int { return 0 }

func matMulTVec(dst, a, b []float64, m, k, n int) int { return 0 }

func rowMulTAddVec(dst, x, w []float64, k int) int { return 0 }

func matMulVec(dst, a, b []float64, m, k, n int) bool { return false }

func matMulTAccVec(dst, a, b []float64, m, k, n int, set bool) bool { return false }

func (a *Adam) stepVec(p, g, m, v []float64, c1, c2 float64) int { return 0 }
