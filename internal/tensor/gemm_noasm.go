//go:build !amd64 || purego

package tensor

// KernelF64 names the kernel under the f64 MulMatT: without the amd64
// assembly it is always the portable Go kernel.
func KernelF64() string { return "go" }

// gemmNT computes dst = a · bᵀ through the portable kernel, the definition
// the AVX2 micro-kernel reproduces bit-for-bit.
func gemmNT(dst, a, b *Matrix) { gemmNTGo(dst, a, b, 0) }
