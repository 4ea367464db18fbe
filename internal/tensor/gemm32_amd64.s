//go:build amd64 && !purego

#include "textflag.h"

// func gemmNT4xNf32(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k, n int)
//
// Packed-SSE NT micro-kernel: 4 input rows × n weight rows (n even) over a
// full K reduction (K % 4 == 0, no tail). Per j-pair it holds an 8×4
// accumulator tile — 4 rows × 2 weight rows × 4 packed k-lanes — in
// X0..X7, with X8/X9 carrying the two weight quads and X10/X11 as temps.
// Baseline amd64 (SSE) only: no feature detection, so every amd64 machine
// reduces in the same order. The reduction per element is the 4-lane
// contract of dot4lanes: lane = k%4, combined as (l0+l2)+(l1+l3), which is
// what the MOVHLPS/SHUFPS epilogue computes — pure-Go paths match it
// bit-for-bit.
//
// Accumulator layout per j-pair:
//   X0 = row0·b0   X1 = row0·b1
//   X2 = row1·b0   X3 = row1·b1
//   X4 = row2·b0   X5 = row2·b1
//   X6 = row3·b0   X7 = row3·b1
TEXT ·gemmNT4xNf32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $2, R8            // dst row stride, bytes

	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	SHLQ $2, R9            // a row stride, bytes
	MOVQ SI, R11           // a row 0
	LEAQ (SI)(R9*1), R12   // a row 1
	LEAQ (SI)(R9*2), R13   // a row 2
	LEAQ (R12)(R9*2), R14  // a row 3

	MOVQ b+32(FP), R15     // b row j+0
	MOVQ ldb+40(FP), DX
	SHLQ $2, DX            // b row stride, bytes
	LEAQ (R15)(DX*1), BX   // b row j+1
	SHLQ $1, DX            // advance: two b rows, bytes

	MOVQ k+48(FP), R9
	SHLQ $2, R9            // K, bytes
	MOVQ n+56(FP), CX
	SHRQ $1, CX            // j-pair count

jloop:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  AX, AX
	CMPQ  AX, R9
	JGE   combine

kloop:
	MOVUPS (R15)(AX*1), X8  // b0[k:k+4]
	MOVUPS (BX)(AX*1), X9   // b1[k:k+4]

	MOVUPS (R11)(AX*1), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1

	MOVUPS (R12)(AX*1), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X2
	MULPS  X9, X11
	ADDPS  X11, X3

	MOVUPS (R13)(AX*1), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5

	MOVUPS (R14)(AX*1), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X11
	ADDPS  X11, X7

	ADDQ $16, AX
	CMPQ AX, R9
	JL   kloop

combine:
	// Per accumulator: lane0' = l0+l2, lane1' = l1+l3 (MOVHLPS+ADDPS),
	// then scalar add lane1' into lane0' — exactly (l0+l2)+(l1+l3).
	MOVHLPS X0, X10
	ADDPS   X0, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, (DI)

	MOVHLPS X1, X10
	ADDPS   X1, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, 4(DI)

	MOVHLPS X2, X10
	ADDPS   X2, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, (DI)(R8*1)

	MOVHLPS X3, X10
	ADDPS   X3, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, 4(DI)(R8*1)

	MOVHLPS X4, X10
	ADDPS   X4, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, (DI)(R8*2)

	MOVHLPS X5, X10
	ADDPS   X5, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, 4(DI)(R8*2)

	LEAQ (DI)(R8*2), AX    // row 3 = row 2 + stride

	MOVHLPS X6, X10
	ADDPS   X6, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, (AX)(R8*1)

	MOVHLPS X7, X10
	ADDPS   X7, X10
	MOVAPS  X10, X11
	SHUFPS  $1, X11, X11
	ADDSS   X11, X10
	MOVSS   X10, 4(AX)(R8*1)

	ADDQ $8, DI            // two dst columns
	ADDQ DX, R15           // two b rows
	ADDQ DX, BX
	DECQ CX
	JNZ  jloop
	RET
