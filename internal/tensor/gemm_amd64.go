//go:build amd64 && !purego

package tensor

import "sync"

// useAVX2 selects the assembly micro-kernel. It is decided once from the
// CPU's feature bits and never written again: kernel choice is a property
// of the machine, not a setting.
var useAVX2 = detectAVX2()

// KernelF64 names the kernel under the f64 MulMatT on this machine:
// "avx2" (gemm_amd64.s) or "go" (the portable kernel in gemm.go). Both
// produce the same bits; the name is for benchmark rows and bug reports.
func KernelF64() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// detectAVX2 reports AVX2 with OS-enabled YMM state: CPUID.1:ECX says the
// OS uses XSAVE and the CPU has AVX, XCR0 says XMM and YMM state are both
// saved across context switches, and CPUID.7:EBX carries the AVX2 bit.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0 := xgetbv0(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

// packPool recycles the activation strip gemmNT transposes per call (the
// nzPool pattern): K×8 float64s that never outlive the call.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// gemmNT computes dst = a · bᵀ (a: M×K, b: N×K, dst: M×N). With AVX2 the
// rows of a go through the assembly micro-kernel eight at a time, against
// six weight rows per tile; the N%6 trailing columns take the Go kernel.
//
// Only the activations are repacked — O(M·K) per call against O(M·N·K) of
// arithmetic — so the kernel reads the weights where they live and there is
// no derived weight copy to invalidate when training, CopyCellTo or a model
// load rewrites them.
func gemmNT(dst, a, b *Matrix) {
	M, K, N := a.Rows, a.Cols, b.Rows
	tiles := N / 6
	if !useAVX2 || tiles == 0 || M == 0 || K == 0 {
		gemmNTGo(dst, a, b, 0)
		return
	}
	buf := packPool.Get().(*[]float64)
	if cap(*buf) < 8*K {
		*buf = make([]float64, 8*K)
	}
	strip := (*buf)[:8*K]
	for i := 0; i < M; i += 8 {
		rows := min(8, M-i)
		packStrip8(strip, a, i, rows)
		gemmNT8x6f64(&dst.Data[i*N], N, &strip[0], &b.Data[0], K, tiles, rows)
	}
	packPool.Put(buf)
	if 6*tiles < N {
		gemmNTGo(dst, a, b, 6*tiles)
	}
}

// packStrip8 transposes rows [i0, i0+rows) of a into strip, k-major and
// eight lanes wide: strip[8k+r] = a[i0+r][k]. Lanes past rows are zeroed;
// the kernel computes them and stores nothing.
func packStrip8(strip []float64, a *Matrix, i0, rows int) {
	if rows < 8 {
		clear(strip)
	}
	K := a.Cols
	for r := 0; r < rows; r++ {
		row := a.Data[(i0+r)*K : (i0+r+1)*K]
		for k, v := range row {
			strip[8*k+r] = v
		}
	}
}

// gemmNT8x6f64 is the assembly micro-kernel (gemm_amd64.s). For each of
// tiles groups of six weight rows it computes the 8×6 block
// strip · b[6t:6t+6, 0:k]ᵀ in twelve YMM accumulators and stores its first
// rows rows at dst[0:rows, 6t:6t+6]. strip is the packStrip8 layout, b is
// row-major with rows of k elements, ldd is the dst row stride in elements.
// Requires AVX2 (gated by useAVX2).
//
//go:noescape
func gemmNT8x6f64(dst *float64, ldd int, strip *float64, b *float64, k, tiles, rows int)
