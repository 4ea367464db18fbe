//go:build !amd64 || purego

package tensor

// gemmNT32Tile without the assembly kernel: the pure-Go edge path computes
// the same 4-lane reduction, so non-amd64 builds produce bit-identical
// results (the lane contract is the portable definition; the SSE kernel is
// an implementation of it).
func gemmNT32Tile(dst, a, b *Matrix32, i0, n int) {
	gemmNT32Edge(dst, a, b, i0, 4, 0, n)
}
