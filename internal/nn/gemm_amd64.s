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

// TRANSPOSE4 transposes the 4×4 block held in r0..r3 in place (clobbers
// Y8–Y11). It turns four column accumulators (lane = row) into four rows of
// dst (lane = column), and back.
#define TRANSPOSE4(r0, r1, r2, r3) \
	VUNPCKLPD  r1, r0, Y8; \
	VUNPCKHPD  r1, r0, Y9; \
	VUNPCKLPD  r3, r2, Y10; \
	VUNPCKHPD  r3, r2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, r0; \
	VPERM2F128 $0x20, Y11, Y9, r1; \
	VPERM2F128 $0x31, Y10, Y8, r2; \
	VPERM2F128 $0x31, Y11, Y9, r3

// MADD4 adds the panel row Y8 times the broadcast b values of four columns
// (at base, base+ldb, base+2·ldb, base+3·ldb) into a0..a3: VMULPD then
// VADDPD, panel first in the product and accumulator first in the sum.
#define MADD4(base, a0, a1, a2, a3) \
	VBROADCASTSD (base), Y9; \
	VBROADCASTSD (base)(R12*1), Y10; \
	VBROADCASTSD (base)(R12*2), Y11; \
	VBROADCASTSD (base)(R13*1), Y12; \
	VMULPD       Y9, Y8, Y9; \
	VMULPD       Y10, Y8, Y10; \
	VMULPD       Y11, Y8, Y11; \
	VMULPD       Y12, Y8, Y12; \
	VADDPD       Y9, a0, a0; \
	VADDPD       Y10, a1, a1; \
	VADDPD       Y11, a2, a2; \
	VADDPD       Y12, a3, a3

// func matMulT4AVX(dst *float64, ldd int, ap, b *float64, ldb, kc, n4 int, cont bool)
// One 4-row panel of MatMulT over a block of kc reductions: for every column
// j < n4 (n4 a positive multiple of 4, kc > 0),
//
//	dst[r*ldd+j] = acc + Σ_{p<kc} ap[p*4+r] * b[j*ldb+p]   (r = 0..3, p in order)
//
// where ap is the panel packed k-major and acc is +0, or dst's own value when
// cont is set (a later k block continues the chain). A lane is one of the
// four rows; columns go eight at a time (eight independent chains hide the
// add latency), then four.
TEXT ·matMulT4AVX(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), AX
	SHLQ $3, AX             // dst row stride in bytes
	LEAQ (AX)(AX*2), DX     // three rows
	MOVQ ap+16(FP), R11
	MOVQ b+24(FP), R10      // first b row of the current column group
	MOVQ ldb+32(FP), R12
	SHLQ $3, R12            // b row stride in bytes
	LEAQ (R12)(R12*2), R13  // three rows
	MOVQ n4+48(FP), BX      // columns left

cols8:
	CMPQ BX, $8
	JLT  cols4
	CMPB cont+56(FP), $0
	JNE  load8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    run8

load8:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (DI)(AX*2), Y2
	VMOVUPD (DI)(DX*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VMOVUPD 32(DI), Y4
	VMOVUPD 32(DI)(AX*1), Y5
	VMOVUPD 32(DI)(AX*2), Y6
	VMOVUPD 32(DI)(DX*1), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7)

run8:
	MOVQ R11, SI
	MOVQ R10, R8
	LEAQ (R10)(R12*4), R9
	MOVQ kc+40(FP), CX

loop8:
	VMOVUPD (SI), Y8
	MADD4(R8, Y0, Y1, Y2, Y3)
	MADD4(R9, Y4, Y5, Y6, Y7)
	ADDQ    $32, SI
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JNZ     loop8

	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, (DI)(AX*2)
	VMOVUPD Y3, (DI)(DX*1)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 32(DI)(AX*2)
	VMOVUPD Y7, 32(DI)(DX*1)
	ADDQ    $64, DI
	LEAQ    (R10)(R12*8), R10
	SUBQ    $8, BX
	JMP     cols8

cols4:
	CMPQ BX, $4
	JLT  done
	CMPB cont+56(FP), $0
	JNE  load4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    run4

load4:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (DI)(AX*2), Y2
	VMOVUPD (DI)(DX*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3)

run4:
	MOVQ R11, SI
	MOVQ R10, R8
	MOVQ kc+40(FP), CX

loop4:
	VMOVUPD (SI), Y8
	MADD4(R8, Y0, Y1, Y2, Y3)
	ADDQ    $32, SI
	ADDQ    $8, R8
	DECQ    CX
	JNZ     loop4

	TRANSPOSE4(Y0, Y1, Y2, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, (DI)(AX*2)
	VMOVUPD Y3, (DI)(DX*1)

done:
	VZEROUPPER
	RET

// ROWT2 adds two reduction columns of four W rows into acc. The rows start
// at base, base+kb, base+2·kb, base+3·kb (R12 = kb, R13 = 3·kb) and the
// columns at byte offset off in each: a 16-byte load of each row, the third
// and fourth inserted above the first and second, and an unpack turn them
// into (w[0][p], w[1][p], w[2][p], w[3][p]) and the same at p+1 — a 4×2
// transpose through the loads. Each column is multiplied by the broadcast
// x[p] (Y12) or x[p+1] (Y13), then added, p before p+1: VMULPD then VADDPD,
// column first in the product and accumulator first in the sum.
#define ROWT2(off, base, acc) \
	VMOVUPD     off(base), X8; \
	VINSERTF128 $1, off(base)(R12*2), Y8, Y8; \
	VMOVUPD     off(base)(R12*1), X9; \
	VINSERTF128 $1, off(base)(R13*1), Y9, Y9; \
	VUNPCKLPD   Y9, Y8, Y10; \
	VUNPCKHPD   Y9, Y8, Y11; \
	VMULPD      Y12, Y10, Y10; \
	VMULPD      Y13, Y11, Y11; \
	VADDPD      Y10, acc, acc; \
	VADDPD      Y11, acc, acc

// ROWT1 is ROWT2 for one column, at offset 0: the four elements are
// gathered with scalar loads, and x[p] is in Y12.
#define ROWT1(base, acc) \
	VMOVSD      (base), X8; \
	VMOVHPD     (base)(R12*1), X8, X8; \
	VMOVSD      (base)(R12*2), X9; \
	VMOVHPD     (base)(R13*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8; \
	VMULPD      Y12, Y8, Y8; \
	VADDPD      Y8, acc, acc

// ROWT16(off) adds two columns, at byte offset off, into all four column
// groups of a sixteen-output tile; ROWT4(off) into the one group of a
// four-output tile.
#define ROWT16(off) \
	VBROADCASTSD off(AX), Y12; \
	VBROADCASTSD off+8(AX), Y13; \
	ROWT2(off, R8, Y0); \
	ROWT2(off, R9, Y1); \
	ROWT2(off, R11, Y2); \
	ROWT2(off, SI, Y3)

#define ROWT4(off) \
	VBROADCASTSD off(AX), Y12; \
	VBROADCASTSD off+8(AX), Y13; \
	ROWT2(off, R8, Y0)

// func rowMulTAVX(dst, x, w *float64, k, n4 int)
// The one-row product over output columns j < n4 (n4 a positive multiple
// of 4, k > 0), continuing from dst:
//
//	dst[j] = dst[j] + Σ_{p<k} w[j*k+p] * x[p]   (p in order)
//
// w is in the Dense layout (row j holds output j's k weights) and is read
// in place. A lane is one of four adjacent outputs; outputs go sixteen at a
// time (four independent chains hide the add latency), then four, and the
// reductions four at a time, then two, then one.
TEXT ·rowMulTAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+16(FP), R10      // first W row of the current tile
	MOVQ k+24(FP), DX
	MOVQ DX, R12
	SHLQ $3, R12            // W row stride in bytes
	LEAQ (R12)(R12*2), R13  // three rows
	MOVQ n4+32(FP), BX      // columns left

cols16:
	CMPQ    BX, $16
	JLT     cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R10, R8
	LEAQ    (R10)(R12*4), R9
	LEAQ    (R9)(R12*4), R11
	LEAQ    (R11)(R12*4), SI
	MOVQ    x+8(FP), AX
	MOVQ    DX, CX
	SHRQ    $2, CX
	JZ      pair16

loop16:
	ROWT16(0)
	ROWT16(16)
	ADDQ $32, AX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R11
	ADDQ $32, SI
	DECQ CX
	JNZ  loop16

pair16:
	TESTQ $2, DX
	JZ    odd16
	ROWT16(0)
	ADDQ  $16, AX
	ADDQ  $16, R8
	ADDQ  $16, R9
	ADDQ  $16, R11
	ADDQ  $16, SI

odd16:
	TESTQ        $1, DX
	JZ           store16
	VBROADCASTSD (AX), Y12
	ROWT1(R8, Y0)
	ROWT1(R9, Y1)
	ROWT1(R11, Y2)
	ROWT1(SI, Y3)

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R10)(R12*8), R10
	LEAQ    (R10)(R12*8), R10 // sixteen rows on
	SUBQ    $16, BX
	JMP     cols16

cols4:
	CMPQ    BX, $4
	JLT     done
	VMOVUPD (DI), Y0
	MOVQ    R10, R8
	MOVQ    x+8(FP), AX
	MOVQ    DX, CX
	SHRQ    $2, CX
	JZ      pair4

loop4:
	ROWT4(0)
	ROWT4(16)
	ADDQ $32, AX
	ADDQ $32, R8
	DECQ CX
	JNZ  loop4

pair4:
	TESTQ $2, DX
	JZ    odd4
	ROWT4(0)
	ADDQ  $16, AX
	ADDQ  $16, R8

odd4:
	TESTQ        $1, DX
	JZ           store4
	VBROADCASTSD (AX), Y12
	ROWT1(R8, Y0)

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R10)(R12*4), R10
	SUBQ    $4, BX
	JMP     cols4

done:
	VZEROUPPER
	RET
