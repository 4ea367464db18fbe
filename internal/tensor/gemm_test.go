package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// gemmShapes covers tile-aligned, ragged, tiny, and block-crossing shapes
// (K > gemmKC exercises the partial-sum spill between k-blocks).
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 3}, {8, 16, 8},
	{17, 33, 9}, {64, 300, 12}, {7, 260, 5}, {130, 13, 70},
}

func TestMulMatTBitIdenticalToMulVec(t *testing.T) {
	rng := NewRNG(8)
	for _, sh := range gemmShapes {
		// dst = a · wᵀ: row i of dst must match w.MulVec(row i of a).
		a := randMatrix(rng, sh.m, sh.k)
		w := randMatrix(rng, sh.n, sh.k)
		got := NewMatrix(sh.m, sh.n)
		a.MulMatT(got, w)
		want := NewVector(sh.n)
		for i := 0; i < sh.m; i++ {
			w.MulVec(want, a.Row(i))
			for j, x := range want {
				if got.Row(i)[j] != x {
					t.Fatalf("%dx%dx%d: row %d col %d: got %v want %v", sh.m, sh.k, sh.n, i, j, got.Row(i)[j], x)
				}
			}
		}
	}
}

func TestMulMatTShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	for _, fn := range []func(){
		func() { a.MulMatT(NewMatrix(2, 5), NewMatrix(5, 4)) }, // inner mismatch (4 != 3)
		func() { a.MulMatT(NewMatrix(3, 5), NewMatrix(5, 3)) }, // dst rows
		func() { a.MulMatT(NewMatrix(2, 4), NewMatrix(5, 3)) }, // dst cols
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shape mismatch must panic")
				}
			}()
			fn()
		}()
	}
}

// specials are the values where a vector kernel is most likely to part
// from a scalar one: signed zeros, subnormals, infinities, and magnitudes
// whose products overflow or underflow.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1),
	1e300, -1e300, 1e-300, -1e-300,
}

// specialMatrix draws normal deviates, replacing about one element in
// eight with a special value.
func specialMatrix(rng *RNG, rows, cols int) *Matrix {
	m := randMatrix(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// TestMulMatTMatchesPortableKernel is the property test behind the AVX2
// micro-kernel: on the same machine, MulMatT (assembly where the CPU has
// AVX2) and the portable Go kernel must agree in every bit, over shapes
// ragged in all three dimensions and over values that include ±0,
// subnormals, ±Inf and overflowing products. A NaN must come out as a NaN;
// its payload is unspecified. The guard cells behind dst catch a ragged
// strip or tile storing past the rows and columns it owns.
func TestMulMatTMatchesPortableKernel(t *testing.T) {
	if KernelF64() == "go" {
		t.Skip("no AVX2 kernel on this build or CPU: MulMatT is the portable kernel")
	}
	const guard = 16
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	rng := NewRNG(15)
	for _, K := range []int{1, 3, 128, 279, 300} {
		for _, N := range []int{1, 5, 6, 7, 96, 192, 384, 385} {
			w := specialMatrix(rng, N, K)
			if K == 128 {
				w = randMatrix(rng, N, K) // one all-finite pass: no NaN masks a wrong lane
			}
			for B := 1; B <= 41; B++ {
				a := specialMatrix(rng, B, K)
				if K == 128 {
					a = randMatrix(rng, B, K)
				}
				want := NewMatrix(B, N)
				gemmNTGo(want, a, w, 0)
				backing := make([]float64, B*N+guard)
				for i := range backing {
					backing[i] = sentinel
				}
				got := &Matrix{Rows: B, Cols: N, Data: backing[:B*N]}
				a.MulMatT(got, w)
				for i, x := range want.Data {
					g := got.Data[i]
					if math.IsNaN(x) && math.IsNaN(g) {
						continue
					}
					if math.Float64bits(g) != math.Float64bits(x) {
						t.Fatalf("B=%d N=%d K=%d element (%d,%d): avx2 %v (%#x) vs go %v (%#x)",
							B, N, K, i/N, i%N, g, math.Float64bits(g), x, math.Float64bits(x))
					}
				}
				for i, x := range backing[B*N:] {
					if math.Float64bits(x) != math.Float64bits(sentinel) {
						t.Fatalf("B=%d N=%d K=%d: guard cell %d behind dst overwritten", B, N, K, i)
					}
				}
			}
		}
	}
}

// TestMulMatTSteadyStateAllocs pins the pooled pack strip: after the first
// call at a shape, MulMatT allocates nothing.
func TestMulMatTSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the pack strip reallocates")
	}
	rng := NewRNG(16)
	a := randMatrix(rng, 19, 64)
	w := randMatrix(rng, 193, 64) // ragged strip and a ragged column
	dst := NewMatrix(19, 193)
	a.MulMatT(dst, w) // warm the pool
	if allocs := testing.AllocsPerRun(20, func() { a.MulMatT(dst, w) }); allocs != 0 {
		t.Fatalf("MulMatT: %v allocs/op, want 0", allocs)
	}
}

// TestMulMatTConcurrent shares the pack-strip pool between goroutines with
// different K (so a recycled strip is both too small and too large for its
// next user); run under -race it checks the pool hand-off, and in any mode
// that concurrent calls do not disturb each other's results.
func TestMulMatTConcurrent(t *testing.T) {
	rng := NewRNG(17)
	var wg sync.WaitGroup
	for _, K := range []int{24, 131} {
		a := randMatrix(rng, 13, K)
		w := randMatrix(rng, 50, K)
		want := NewMatrix(13, 50)
		gemmNTGo(want, a, w, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := NewMatrix(13, 50)
			for iter := 0; iter < 200; iter++ {
				a.MulMatT(got, w)
				for i, x := range want.Data {
					if got.Data[i] != x {
						t.Errorf("K=%d iter %d element %d: got %v want %v", K, iter, i, got.Data[i], x)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMulVecAddMatchesMulVec is the property test pinning the sparse fast
// path: MulVecAdd on a zeroed destination must be bit-identical to MulVec,
// across dense, sparse (one-hot-like), and empty inputs.
func TestMulVecAddMatchesMulVec(t *testing.T) {
	rng := NewRNG(10)
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(400)
		m := randMatrix(rng, rows, cols)
		x := NewVector(cols)
		switch trial % 3 {
		case 0: // dense
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		case 1: // sparse one-hot-ish (the GRU update-input shape)
			for i := 0; i < 1+rng.Intn(4); i++ {
				x[rng.Intn(cols)] = 1
			}
		case 2: // all zero
		}
		want := NewVector(rows)
		m.MulVec(want, x)
		got := NewVector(rows)
		m.MulVecAdd(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%dx%d) row %d: MulVecAdd %v vs MulVec %v", trial, rows, cols, i, got[i], want[i])
			}
		}
		// And accumulation: a second MulVecAdd must add the product again.
		m.MulVecAdd(got, x)
		for i := range want {
			if got[i] != want[i]+want[i] {
				t.Fatalf("trial %d row %d: accumulate %v vs %v", trial, i, got[i], want[i]+want[i])
			}
		}
	}
}

func TestMulVecDenseMatchesMulVec(t *testing.T) {
	rng := NewRNG(11)
	m := randMatrix(rng, 24, 96)
	x := NewVector(96)
	x[3], x[90] = 1, 2.5 // sparse: MulVec takes the gather path
	want := NewVector(24)
	m.MulVec(want, x)
	got := NewVector(24)
	m.MulVecDense(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: dense %v vs sparse %v", i, got[i], want[i])
		}
	}
}

// TestMulVecSteadyStateAllocs pins the gatherNonzeros pool fix: sparse
// matrix-vector products must not allocate per call.
func TestMulVecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the nzPool buffer reallocates")
	}
	rng := NewRNG(12)
	m := randMatrix(rng, 48, 300)
	x := NewVector(300)
	x[5], x[120], x[299] = 1, 1, 1
	dst := NewVector(48)
	m.MulVec(dst, x) // warm the pool
	for name, fn := range map[string]func(){
		"MulVec":     func() { m.MulVec(dst, x) },
		"MulVecAdd":  func() { m.MulVecAdd(dst, x) },
		"RankOneAdd": func() { m.RankOneAdd(0.5, dst, x) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena(0)
	a.Reset()
	m1 := a.Matrix(4, 8)
	v1 := a.Vector(16)
	if m1.Rows != 4 || m1.Cols != 8 || len(m1.Data) != 32 || len(v1) != 16 {
		t.Fatalf("arena shapes wrong: %dx%d len %d / %d", m1.Rows, m1.Cols, len(m1.Data), len(v1))
	}
	m1.Data[0] = 42
	a.Reset()
	// Same demand → same backing storage, no allocation.
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		m := a.Matrix(4, 8)
		_ = a.Vector(16)
		m.Data[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena allocs: %v, want 0", allocs)
	}
	// Growth: a bigger cycle is satisfied (from the heap at first, from the
	// regrown slab afterwards).
	a.Reset()
	big := a.Matrix(64, 64)
	big.Data[4095] = 7
	a.Reset()
	if got := testing.AllocsPerRun(10, func() {
		a.Reset()
		_ = a.Matrix(64, 64)
	}); got != 0 {
		t.Fatalf("post-growth arena allocs: %v, want 0", got)
	}
}

// BenchmarkGEMM measures the blocked kernels at the batched-GRU shapes:
// a (B × d) panel against the (3h × d) gate weights.
func BenchmarkGEMM(b *testing.B) {
	rng := NewRNG(13)
	for _, d := range []int{32, 64, 128} {
		for _, batch := range []int{8, 32} {
			x := randMatrix(rng, batch, d)
			w := randMatrix(rng, 3*d, d)
			dst := NewMatrix(batch, 3*d)
			b.Run(fmt.Sprintf("NT-d%d-B%d", d, batch), func(b *testing.B) {
				b.SetBytes(int64(8 * (batch*d + 3*d*d + batch*3*d)))
				for i := 0; i < b.N; i++ {
					x.MulMatT(dst, w)
				}
			})
		}
	}
}

// BenchmarkMulVecVsGEMM contrasts B MulVecs against one GEMM at the same
// total work — the weight-reuse win the batched finaliser banks on.
func BenchmarkMulVecVsGEMM(b *testing.B) {
	rng := NewRNG(14)
	const d, batch = 64, 32
	w := randMatrix(rng, 3*d, d)
	x := randMatrix(rng, batch, d)
	dstV := NewVector(3 * d)
	dstM := NewMatrix(batch, 3*d)
	b.Run("mulvec-x32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch; r++ {
				w.MulVec(dstV, x.Row(r))
			}
		}
	})
	b.Run("gemm-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MulMatT(dstM, w)
		}
	})
}
