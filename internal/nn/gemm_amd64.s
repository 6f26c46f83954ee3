//go:build !purego

#include "textflag.h"

// In every kernel the first source of VMULPD is the streamed element and the
// first source of VADDPD is the product: the operand order of the MULSD /
// ADDSD pair the compiler emits for the Go bodies in a default build, so that
// a NaN meeting a NaN usually keeps the same payload in both. (Not a contract:
// the -race build orders them the other way.)

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV                 // XCR0 in DX:AX
	ANDL   $6, AX          // XMM (bit 1) and YMM (bit 2) state saved by the OS
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
no:
	RET

// The kernels below run n elements, n a positive multiple of 4, one
// 4-element vector per iteration (unrolling to 8 measured 10 % on the kernel
// and under 1 % on a TD3 update — not worth a second loop body each).

// func axpyAVX(s float64, x, dst *float64, n int)
// dst[i] += s * x[i]
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD s+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX

loop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func axpy2AVX(s0, s1 float64, x, d0, d1 *float64, n int)
// d0[i] += s0 * x[i]; d1[i] += s1 * x[i]
TEXT ·axpy2AVX(SB), NOSPLIT, $0-48
	VBROADCASTSD s0+0(FP), Y0
	VBROADCASTSD s1+8(FP), Y1
	MOVQ         x+16(FP), SI
	MOVQ         d0+24(FP), DI
	MOVQ         d1+32(FP), R8
	MOVQ         n+40(FP), CX
	SHRQ         $2, CX

loop:
	VMOVUPD (SI), Y2
	VMULPD  Y0, Y2, Y3
	VMULPD  Y1, Y2, Y4
	VADDPD  (DI), Y3, Y3
	VADDPD  (R8), Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func axpy21AVX(s0 float64, x0 *float64, s1 float64, x1, dst *float64, n int)
// dst[i] += s0*x0[i] + s1*x1[i]: the two products are summed first (s1's
// product is the first source, as in the Go body), then added to dst.
TEXT ·axpy21AVX(SB), NOSPLIT, $0-48
	VBROADCASTSD s0+0(FP), Y0
	MOVQ         x0+8(FP), SI
	VBROADCASTSD s1+16(FP), Y1
	MOVQ         x1+24(FP), R8
	MOVQ         dst+32(FP), DI
	MOVQ         n+40(FP), CX
	SHRQ         $2, CX

loop:
	VMOVUPD (SI), Y2
	VMOVUPD (R8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VADDPD  Y2, Y3, Y3
	VADDPD  (DI), Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func axpySetAVX(s float64, x, dst *float64, n int)
// dst[i] = s * x[i]
TEXT ·axpySetAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD s+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX

loop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET
