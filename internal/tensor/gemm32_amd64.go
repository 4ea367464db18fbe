//go:build amd64 && !purego

package tensor

// gemmNT32Tile computes dst[i0:i0+4, 0:n] = a[i0:i0+4, :] · b[0:n, :]ᵀ for
// an even n, through the packed SSE micro-kernel. The kernel implements
// exactly the 4-lane contract of Dot4Lanes, so this block is bit-identical
// to gemmNT32Edge over the same elements.
func gemmNT32Tile(dst, a, b *Matrix32, i0, n int) {
	gemmNT4xNf32(
		&dst.Data[i0*dst.Cols], dst.Cols,
		&a.Data[i0*a.Cols], a.Cols,
		&b.Data[0], b.Cols,
		a.Cols, n,
	)
}

// gemmNT4xNf32 is the assembly micro-kernel (gemm32_amd64.s): 4 input rows
// × n weight rows (n even) over a full K reduction (K % 4 == 0), holding an
// 8×4 accumulator tile — 4 rows × 2 weight rows × 4 packed k-lanes — in
// XMM registers. Strides are in elements.
//
//go:noescape
func gemmNT4xNf32(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k, n int)
