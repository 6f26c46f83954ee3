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

// tailMask<>+(3−r)·8 is the VMASKMOVPD mask of the first r lanes (r = 1–3).
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// TAILMASK loads into Y13 the mask of the BX (1–3) columns left.
#define TAILMASK \
	LEAQ    tailMask<>(SB), R12; \
	MOVQ    $3, R13; \
	SUBQ    BX, R13; \
	VMOVUPD (R12)(R13*8), Y13

// NZ1 adds the nonzero term (scale Y15, W row at R8) of one 4-column vector,
// at byte offset off from the strip (DX), into acc: VMULPD then VADDPD,
// streamed element first in the product and product first in the sum.
// NZTAIL is NZ1 over the masked columns of the last vector.
#define NZ1(off, acc) \
	VMOVUPD off(R8)(DX*1), Y8; \
	VMULPD  Y15, Y8, Y8; \
	VADDPD  acc, Y8, acc

#define NZTAIL \
	VMASKMOVPD (R8)(DX*1), Y13, Y8; \
	VMULPD     Y15, Y8, Y8; \
	VADDPD     Y0, Y8, Y0

// NZTERM loads nonzero term SI's scale into Y15 and its W row into R8.
#define NZTERM \
	VBROADCASTSD (SI), Y15; \
	MOVQ         8(SI), R8

// func matMulRowAVX(dst *float64, nz *nzTerm, cnt, n int, cont bool)
// One row of MatMul over the cnt nonzero terms of one block of its
// reductions: for every column j < n (n > 0),
//
//	dst[j] = acc + Σ_t nz[t].s * nz[t].x[j]   (t in order)
//
// where acc is +0, or dst's own value when cont is set (a later block
// continues the chain). A lane is one of four adjacent columns and its
// accumulator stays in a register across the terms; columns go 32 at a time
// (eight chains), then 16, then 4, then the n mod 4 left under a mask.
TEXT ·matMulRowAVX(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ nz+8(FP), R10
	MOVQ cnt+16(FP), R11
	MOVQ n+24(FP), BX
	XORQ DX, DX             // byte offset of the current strip

cols32:
	CMPQ    BX, $32
	JLT     cols16
	CMPB    cont+32(FP), $0
	JNE     load32
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	JMP     run32

load32:
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	VMOVUPD 128(DI)(DX*1), Y4
	VMOVUPD 160(DI)(DX*1), Y5
	VMOVUPD 192(DI)(DX*1), Y6
	VMOVUPD 224(DI)(DX*1), Y7

run32:
	MOVQ  R10, SI
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    store32

loop32:
	NZTERM
	NZ1(0, Y0)
	NZ1(32, Y1)
	NZ1(64, Y2)
	NZ1(96, Y3)
	NZ1(128, Y4)
	NZ1(160, Y5)
	NZ1(192, Y6)
	NZ1(224, Y7)
	ADDQ  $16, SI
	DECQ  CX
	JNZ   loop32

store32:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	VMOVUPD Y4, 128(DI)(DX*1)
	VMOVUPD Y5, 160(DI)(DX*1)
	VMOVUPD Y6, 192(DI)(DX*1)
	VMOVUPD Y7, 224(DI)(DX*1)
	ADDQ    $256, DX
	SUBQ    $32, BX
	JMP     cols32

cols16:
	CMPQ    BX, $16
	JLT     cols4
	CMPB    cont+32(FP), $0
	JNE     load16
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	JMP     run16

load16:
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3

run16:
	MOVQ  R10, SI
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    store16

loop16:
	NZTERM
	NZ1(0, Y0)
	NZ1(32, Y1)
	NZ1(64, Y2)
	NZ1(96, Y3)
	ADDQ  $16, SI
	DECQ  CX
	JNZ   loop16

store16:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	SUBQ    $16, BX
	JMP     cols16

cols4:
	CMPQ    BX, $4
	JLT     tail
	CMPB    cont+32(FP), $0
	JNE     load4
	VXORPD  Y0, Y0, Y0
	JMP     run4

load4:
	VMOVUPD (DI)(DX*1), Y0

run4:
	MOVQ  R10, SI
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    store4

loop4:
	NZTERM
	NZ1(0, Y0)
	ADDQ  $16, SI
	DECQ  CX
	JNZ   loop4

store4:
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	SUBQ    $4, BX
	JMP     cols4

tail:
	TESTQ  BX, BX
	JZ     done
	TAILMASK
	VXORPD Y0, Y0, Y0
	CMPB   cont+32(FP), $0
	JE     runtail
	VMASKMOVPD (DI)(DX*1), Y13, Y0

runtail:
	MOVQ  R10, SI
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    storetail

looptail:
	NZTERM
	NZTAIL
	ADDQ  $16, SI
	DECQ  CX
	JNZ   looptail

storetail:
	VMASKMOVPD Y0, Y13, (DI)(DX*1)

done:
	VZEROUPPER
	RET

// PAIR1 adds one pair term (scales Y14, Y15, rows R8, R9) of one 4-column
// vector into acc: the two products, their sum (the second product first,
// as in axpy21's Go body), then acc plus the sum (the sum first). PAIRTAIL
// is PAIR1 over the masked columns of the last vector; TERM1 and TERMTAIL
// start acc at the first term's product alone (MatMulTSet's assignment from
// sample row 0).
#define PAIR1(off, acc) \
	VMOVUPD off(R8)(DX*1), Y8; \
	VMULPD  Y14, Y8, Y8; \
	VMOVUPD off(R9)(DX*1), Y9; \
	VMULPD  Y15, Y9, Y9; \
	VADDPD  Y8, Y9, Y9; \
	VADDPD  acc, Y9, acc

#define PAIRTAIL \
	VMASKMOVPD (R8)(DX*1), Y13, Y8; \
	VMULPD     Y14, Y8, Y8; \
	VMASKMOVPD (R9)(DX*1), Y13, Y9; \
	VMULPD     Y15, Y9, Y9; \
	VADDPD     Y8, Y9, Y9; \
	VADDPD     Y0, Y9, Y0

#define TERM1(off, acc) \
	VMOVUPD off(R8)(DX*1), acc; \
	VMULPD  Y14, acc, acc

#define TERMTAIL \
	VMASKMOVPD (R8)(DX*1), Y13, Y0; \
	VMULPD     Y14, Y0, Y0

// TERM loads pair term SI's scales into Y14, Y15 and its rows into R8, R9.
#define TERM \
	VBROADCASTSD (SI), Y14; \
	MOVQ         8(SI), R8; \
	VBROADCASTSD 16(SI), Y15; \
	MOVQ         24(SI), R9

// func matMulTRowAVX(dst *float64, terms *pairTerm, cnt, n int, set bool)
// One dW row of MatMulTAcc/Set over the cnt terms of one block of sample
// rows: for every column j < n (n > 0),
//
//	dst[j] = acc + Σ_t (terms[t].s0*terms[t].x0[j] + terms[t].s1*terms[t].x1[j])   (t in order)
//
// where acc is dst's own value, or, when set is set, the first term's
// s0*x0[j] alone (its s1, x1 unused; the sum then runs from the second). A
// lane is one of four adjacent columns and its accumulator stays in a
// register across the terms; columns go 32 at a time, then 16, then 4, then
// the n mod 4 left under a mask.
TEXT ·matMulTRowAVX(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    terms+8(FP), R10
	MOVQ    cnt+16(FP), R11
	MOVQ    n+24(FP), BX
	MOVBQZX set+32(FP), AX
	XORQ    DX, DX          // byte offset of the current strip

tcols32:
	CMPQ    BX, $32
	JLT     tcols16
	MOVQ    R10, SI
	MOVQ    R11, CX
	TESTQ   AX, AX
	JNZ     tset32
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	VMOVUPD 128(DI)(DX*1), Y4
	VMOVUPD 160(DI)(DX*1), Y5
	VMOVUPD 192(DI)(DX*1), Y6
	VMOVUPD 224(DI)(DX*1), Y7
	JMP     trun32

tset32:
	VBROADCASTSD (SI), Y14
	MOVQ         8(SI), R8
	TERM1(0, Y0)
	TERM1(32, Y1)
	TERM1(64, Y2)
	TERM1(96, Y3)
	TERM1(128, Y4)
	TERM1(160, Y5)
	TERM1(192, Y6)
	TERM1(224, Y7)
	ADDQ         $32, SI
	DECQ         CX

trun32:
	TESTQ CX, CX
	JZ    tstore32

tloop32:
	TERM
	PAIR1(0, Y0)
	PAIR1(32, Y1)
	PAIR1(64, Y2)
	PAIR1(96, Y3)
	PAIR1(128, Y4)
	PAIR1(160, Y5)
	PAIR1(192, Y6)
	PAIR1(224, Y7)
	ADDQ  $32, SI
	DECQ  CX
	JNZ   tloop32

tstore32:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	VMOVUPD Y4, 128(DI)(DX*1)
	VMOVUPD Y5, 160(DI)(DX*1)
	VMOVUPD Y6, 192(DI)(DX*1)
	VMOVUPD Y7, 224(DI)(DX*1)
	ADDQ    $256, DX
	SUBQ    $32, BX
	JMP     tcols32

tcols16:
	CMPQ    BX, $16
	JLT     tcols4
	MOVQ    R10, SI
	MOVQ    R11, CX
	TESTQ   AX, AX
	JNZ     tset16
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	JMP     trun16

tset16:
	VBROADCASTSD (SI), Y14
	MOVQ         8(SI), R8
	TERM1(0, Y0)
	TERM1(32, Y1)
	TERM1(64, Y2)
	TERM1(96, Y3)
	ADDQ         $32, SI
	DECQ         CX

trun16:
	TESTQ CX, CX
	JZ    tstore16

tloop16:
	TERM
	PAIR1(0, Y0)
	PAIR1(32, Y1)
	PAIR1(64, Y2)
	PAIR1(96, Y3)
	ADDQ  $32, SI
	DECQ  CX
	JNZ   tloop16

tstore16:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	SUBQ    $16, BX
	JMP     tcols16

tcols4:
	CMPQ    BX, $4
	JLT     ttail
	MOVQ    R10, SI
	MOVQ    R11, CX
	TESTQ   AX, AX
	JNZ     tset4
	VMOVUPD (DI)(DX*1), Y0
	JMP     trun4

tset4:
	VBROADCASTSD (SI), Y14
	MOVQ         8(SI), R8
	TERM1(0, Y0)
	ADDQ         $32, SI
	DECQ         CX

trun4:
	TESTQ CX, CX
	JZ    tstore4

tloop4:
	TERM
	PAIR1(0, Y0)
	ADDQ  $32, SI
	DECQ  CX
	JNZ   tloop4

tstore4:
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	SUBQ    $4, BX
	JMP     tcols4

ttail:
	TESTQ BX, BX
	JZ    tdone
	TAILMASK
	MOVQ  R10, SI
	MOVQ  R11, CX
	TESTQ AX, AX
	JNZ   tsettail
	VMASKMOVPD (DI)(DX*1), Y13, Y0
	JMP   truntail

tsettail:
	VBROADCASTSD (SI), Y14
	MOVQ         8(SI), R8
	TERMTAIL
	ADDQ         $32, SI
	DECQ         CX

truntail:
	TESTQ CX, CX
	JZ    tstoretail

tlooptail:
	TERM
	PAIRTAIL
	ADDQ  $32, SI
	DECQ  CX
	JNZ   tlooptail

tstoretail:
	VMASKMOVPD Y0, Y13, (DI)(DX*1)

tdone:
	VZEROUPPER
	RET

// func adamAVX(p, grad, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps float64)
// The Adam step over n elements (n a positive multiple of 4), ob1 = 1−b1
// and ob2 = 1−b2, each lane one element and each operation the Go body's,
// in its order and correctly rounded (the sources of each commutative one
// in the order the compiler emits for the Go body, not the streamed-first
// rule above):
//
//	m = b1*m + ob1*grad;  v = b2*v + (ob2*grad)*grad
//	p = p − (lr*(m/c1)) / (sqrt(v/c2) + eps)
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD ob1+48(FP), Y9
	VBROADCASTSD b2+56(FP), Y10
	VBROADCASTSD ob2+64(FP), Y11
	VBROADCASTSD c1+72(FP), Y12
	VBROADCASTSD c2+80(FP), Y13
	VBROADCASTSD lr+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y15

adamloop:
	VMOVUPD (SI), Y0        // grad
	VMOVUPD (R8), Y1
	VMULPD  Y8, Y1, Y1      // b1*m
	VMULPD  Y0, Y9, Y2      // ob1*grad
	VADDPD  Y1, Y2, Y1      // m
	VMOVUPD Y1, (R8)
	VMOVUPD (R9), Y3
	VMULPD  Y10, Y3, Y3     // b2*v
	VMULPD  Y0, Y11, Y4     // ob2*grad
	VMULPD  Y4, Y0, Y4      // (ob2*grad)*grad
	VADDPD  Y3, Y4, Y3      // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y12, Y1, Y1     // mHat = m/c1
	VDIVPD  Y13, Y3, Y3     // vHat = v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3     // sqrt(vHat) + eps
	VMULPD  Y14, Y1, Y1     // lr*mHat
	VDIVPD  Y3, Y1, Y1      // lr*mHat / (sqrt(vHat) + eps)
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2      // p − step
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adamloop
	VZEROUPPER
	RET
