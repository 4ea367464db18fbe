//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// COLUMN adds one term to the two accumulators of one weight row: the
// weight w[j][k] broadcast to four lanes, times the eight activations of
// this k (Y12 rows 0..3, Y13 rows 4..7). Multiply and add round
// separately — VFMADD would skip the product rounding and change every
// stored digest.
#define COLUMN(w, lo, hi) \
	VBROADCASTSD w, Y14;   \
	VMULPD Y14, Y12, Y15;  \
	VADDPD Y15, lo, lo;    \
	VMULPD Y14, Y13, Y14;  \
	VADDPD Y14, hi, hi

// STORE4 turns six accumulators (one per weight row, lanes = four
// consecutive activation rows) into those rows' six output columns and
// stores them at AX, AX+ldd, …, stopping after the last valid row: limit
// is the number of rows the previous half covered, R12 the valid rows of
// the strip. Columns 0..3 are a 4×4 in-register transpose: the unpacks
// pair neighbouring columns (Y12 = r0c0 r0c1 | r2c0 r2c1, Y13 = r1… | r3…,
// Y14/Y15 likewise for c2 c3), the 128-bit permutes then join the halves
// of one row. Columns 4..5 need only the unpack (Y12 = r0c4 r0c5 | r2c4
// r2c5, Y13 = r1… | r3…).
#define STORE4(c0, c1, c2, c3, c4, c5, limit) \
	VUNPCKLPD c1, c0, Y12;          \
	VUNPCKHPD c1, c0, Y13;          \
	VUNPCKLPD c3, c2, Y14;          \
	VUNPCKHPD c3, c2, Y15;          \
	VPERM2F128 $0x20, Y14, Y12, c0; \
	VPERM2F128 $0x20, Y15, Y13, c1; \
	VPERM2F128 $0x31, Y14, Y12, c2; \
	VPERM2F128 $0x31, Y15, Y13, c3; \
	VUNPCKLPD c5, c4, Y12;          \
	VUNPCKHPD c5, c4, Y13;          \
	VMOVUPD c0, (AX);               \
	VMOVUPD X12, 32(AX);            \
	CMPQ R12, $(limit+1);           \
	JE   next;                      \
	ADDQ R8, AX;                    \
	VMOVUPD c1, (AX);               \
	VMOVUPD X13, 32(AX);            \
	CMPQ R12, $(limit+2);           \
	JE   next;                      \
	ADDQ R8, AX;                    \
	VMOVUPD c2, (AX);               \
	VEXTRACTF128 $1, Y12, 32(AX);   \
	CMPQ R12, $(limit+3);           \
	JE   next;                      \
	ADDQ R8, AX;                    \
	VMOVUPD c3, (AX);               \
	VEXTRACTF128 $1, Y13, 32(AX)

// func gemmNT8x6f64(dst *float64, ldd int, strip *float64, b *float64, k, tiles, rows int)
//
// AVX2 outer-product NT micro-kernel: eight activation rows (one packed
// strip, strip[8k+r] = a[r][k]) against six weight rows per tile, over the
// full K reduction. The twelve accumulators Y0..Y11 hold the 8×6 block
// column-wise — Y(2c) is rows 0..3 of column c, Y(2c+1) rows 4..7 — so
// every lane is a different dst element and each element is one chain
// acc = acc + a[i][k]·w[j][k], k ascending from acc = +0: the same
// operations in the same order as the scalar Go kernel, hence the same
// bits whatever the vector width. Nothing is ever summed across lanes.
//
// b is row-major with rows of exactly k elements; ldd is the dst row
// stride in elements. Requires k ≥ 1, tiles ≥ 1, 1 ≤ rows ≤ 8.
TEXT ·gemmNT8x6f64(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8               // dst row stride, bytes
	MOVQ strip+16(FP), SI
	MOVQ b+24(FP), R9         // weight rows 0..2 of the tile: R9, R9+DX, R9+2DX
	MOVQ k+32(FP), R15
	MOVQ tiles+40(FP), BX
	MOVQ rows+48(FP), R12
	MOVQ R15, DX
	SHLQ $3, DX               // weight row stride, bytes
	LEAQ (DX)(DX*2), R11
	LEAQ (R9)(R11*1), R10     // weight rows 3..5: R10, R10+DX, R10+2DX
	LEAQ (DX)(DX*4), R13      // tile advance: six weight rows less the one the k loop walks

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, CX               // strip cursor
	MOVQ R15, AX              // k countdown

kloop:
	VMOVUPD (CX), Y12         // a[0..3][k]
	VMOVUPD 32(CX), Y13       // a[4..7][k]
	COLUMN((R9), Y0, Y1)
	COLUMN((R9)(DX*1), Y2, Y3)
	COLUMN((R9)(DX*2), Y4, Y5)
	COLUMN((R10), Y6, Y7)
	COLUMN((R10)(DX*1), Y8, Y9)
	COLUMN((R10)(DX*2), Y10, Y11)
	ADDQ $64, CX
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ AX
	JNZ  kloop

	MOVQ DI, AX               // dst row cursor
	STORE4(Y0, Y2, Y4, Y6, Y8, Y10, 0)
	CMPQ R12, $4
	JE   next
	ADDQ R8, AX
	STORE4(Y1, Y3, Y5, Y7, Y9, Y11, 4)

next:
	ADDQ $48, DI              // six dst columns
	ADDQ R13, R9              // six weight rows
	ADDQ R13, R10
	DECQ BX
	JNZ  tile
	VZEROUPPER
	RET
