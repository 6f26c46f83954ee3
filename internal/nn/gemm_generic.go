//go:build !amd64 || purego

package nn

// No vector kernels in this build: every prefix is empty and the Go bodies
// in gemm.go run the whole row.

func axpyVec(s float64, x, dst []float64) int { return 0 }

func axpy2Vec(s0, s1 float64, x, d0, d1 []float64) int { return 0 }

func axpy21Vec(s0 float64, x0 []float64, s1 float64, x1, dst []float64) int { return 0 }

func axpySetVec(s float64, x, dst []float64) int { return 0 }

func matMulTVec(dst, a, b []float64, m, k, n int) int { return 0 }

func rowMulTAddVec(dst, x, w []float64, k int) int { return 0 }
