package tensor

import (
	"fmt"
	"math"
	"testing"
)

func randMatrix32(rng *RNG, rows, cols int) *Matrix32 {
	m := NewMatrix32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// refMulMatT32 is the portable definition of the f32 NT product: one
// 4-lane dot per element, spelled with the shared Dot4Lanes helper. The
// kernels (assembly included) must match it bit-for-bit.
func refMulMatT32(dst, a, b *Matrix32) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, j, Dot4Lanes(a.Row(i), b.Row(j)))
		}
	}
}

// gemm32Shapes covers tile-aligned, ragged-row, odd-weight-row, and tiny
// shapes; K is always a multiple of 4 (the kernel contract — callers pad).
var gemm32Shapes = []struct{ m, k, n int }{
	{1, 4, 1}, {4, 4, 4}, {3, 8, 2}, {4, 8, 3}, {5, 12, 7},
	{8, 128, 96}, {17, 64, 9}, {64, 128, 384}, {6, 92, 13}, {1, 92, 384},
}

func TestMulMatT32BitIdenticalToReference(t *testing.T) {
	rng := NewRNG(71)
	for _, sh := range gemm32Shapes {
		a := randMatrix32(rng, sh.m, sh.k)
		b := randMatrix32(rng, sh.n, sh.k)
		want := NewMatrix32(sh.m, sh.n)
		refMulMatT32(want, a, b)
		got := NewMatrix32(sh.m, sh.n)
		for i := range got.Data {
			got.Data[i] = 999 // overwrite semantics: stale dst must not leak
		}
		a.MulMatT(got, b)
		for i, w := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
				t.Fatalf("%dx%dx%d: element %d: got %v want %v", sh.m, sh.k, sh.n, i, got.Data[i], w)
			}
		}
	}
}

// TestMulMatT32MatchesMulVec32 pins the serving parity property: a batched
// panel row equals the scalar matvec of that row, bit for bit, so batched
// and per-session f32 finalisation store identical states.
func TestMulMatT32MatchesMulVec32(t *testing.T) {
	rng := NewRNG(72)
	for _, sh := range gemm32Shapes {
		a := randMatrix32(rng, sh.m, sh.k)
		w := randMatrix32(rng, sh.n, sh.k)
		dst := NewMatrix32(sh.m, sh.n)
		a.MulMatT(dst, w)
		row := NewVector32(sh.n)
		for i := 0; i < sh.m; i++ {
			w.MulVecDense(row, a.Row(i))
			for j, want := range row {
				if math.Float32bits(dst.At(i, j)) != math.Float32bits(want) {
					t.Fatalf("%dx%dx%d row %d col %d: GEMM %v vs MulVec %v", sh.m, sh.k, sh.n, i, j, dst.At(i, j), want)
				}
			}
		}
	}
}

// TestMulVec32SparseMatchesDense pins the lane contract across routing:
// the sparse fast path (lane = column index % 4) must equal the dense
// pass bit-for-bit, so panel-level and row-level routing decisions can
// never diverge a replay.
func TestMulVec32SparseMatchesDense(t *testing.T) {
	rng := NewRNG(73)
	m := randMatrix32(rng, 48, 92)
	x := NewVector32(92)
	x[3], x[37], x[64], x[91] = 1, 0.5, -2, 1 // sparse: 4/92 < 1/4
	sparse := NewVector32(48)
	dense := NewVector32(48)
	m.MulVec(sparse, x)
	m.MulVecDense(dense, x)
	for i := range sparse {
		if math.Float32bits(sparse[i]) != math.Float32bits(dense[i]) {
			t.Fatalf("row %d: sparse %v dense %v", i, sparse[i], dense[i])
		}
	}
	// Dense vector must route dense and still agree (trivially).
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	m.MulVec(sparse, x)
	m.MulVecDense(dense, x)
	for i := range sparse {
		if math.Float32bits(sparse[i]) != math.Float32bits(dense[i]) {
			t.Fatalf("dense row %d: %v vs %v", i, sparse[i], dense[i])
		}
	}
}

// TestMulVecT32 pins the transposed sparse product: bit-exact against its
// own contract (ascending-nonzero single-chain accumulation), and a clean
// refusal — dst untouched — when x routes dense or is below the cutoff.
func TestMulVecT32(t *testing.T) {
	rng := NewRNG(78)
	m := randMatrix32(rng, 92, 48) // inputs × outputs, transposed-weight layout
	x := NewVector32(92)
	x[3], x[37], x[64], x[91] = 1, 0.5, -2, 1
	dst := NewVector32(48)
	for i := range dst {
		dst[i] = 999 // MulVecT must fully overwrite on the sparse route
	}
	if !m.MulVecT(dst, x) {
		t.Fatal("sparse x must take the transposed route")
	}
	want := NewVector32(48)
	for _, j := range []int{3, 37, 64, 91} {
		for i := range want {
			want[i] += x[j] * m.At(j, i)
		}
	}
	for i := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: got %v want %v", i, dst[i], want[i])
		}
	}
	// A dense x must decline and leave dst alone.
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	before := append(Vector32(nil), dst...)
	if m.MulVecT(dst, x) {
		t.Fatal("dense x must decline the transposed route")
	}
	for i := range dst {
		if dst[i] != before[i] {
			t.Fatalf("dst modified on declined route at %d", i)
		}
	}
	short := NewMatrix32(8, 48)
	if short.MulVecT(dst, NewVector32(8)) {
		t.Fatal("below-cutoff x must decline")
	}
}

// TestMulMatT32CloseToF64 checks the f32 product against the f64 kernels
// within float32 tolerance — the cross-tier bounded-error property.
func TestMulMatT32CloseToF64(t *testing.T) {
	rng := NewRNG(74)
	const m, k, n = 16, 128, 96
	a64 := randMatrix(rng, m, k)
	b64 := randMatrix(rng, n, k)
	a32, b32 := NewMatrix32(m, k), NewMatrix32(n, k)
	for i, v := range a64.Data {
		a32.Data[i] = float32(v)
		a64.Data[i] = float64(a32.Data[i]) // compare from the same rounded inputs
	}
	for i, v := range b64.Data {
		b32.Data[i] = float32(v)
		b64.Data[i] = float64(b32.Data[i])
	}
	want := NewMatrix(m, n)
	a64.MulMatT(want, b64)
	got := NewMatrix32(m, n)
	a32.MulMatT(got, b32)
	for i := range got.Data {
		diff := math.Abs(float64(got.Data[i]) - want.Data[i])
		scale := math.Abs(want.Data[i]) + float64(k)
		if diff > 1e-5*scale {
			t.Fatalf("element %d: f32 %v vs f64 %v (diff %v)", i, got.Data[i], want.Data[i], diff)
		}
	}
}

func TestMulMatT32RejectsUnpaddedK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("K %% 4 != 0 must panic")
		}
	}()
	a := NewMatrix32(4, 6)
	b := NewMatrix32(4, 6)
	dst := NewMatrix32(4, 4)
	a.MulMatT(dst, b)
}

func TestMulVec32SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the nzPool buffer reallocates")
	}
	rng := NewRNG(75)
	m := randMatrix32(rng, 48, 300)
	x := NewVector32(300)
	x[5], x[120], x[299] = 1, 1, 1
	dst := NewVector32(48)
	m.MulVec(dst, x) // warm the pool
	if allocs := testing.AllocsPerRun(20, func() { m.MulVec(dst, x) }); allocs != 0 {
		t.Fatalf("MulVec32: %v allocs/op, want 0", allocs)
	}
}

func TestMulMatT32SteadyStateAllocs(t *testing.T) {
	rng := NewRNG(76)
	a := randMatrix32(rng, 64, 128)
	b := randMatrix32(rng, 384, 128)
	dst := NewMatrix32(64, 384)
	if allocs := testing.AllocsPerRun(10, func() { a.MulMatT(dst, b) }); allocs != 0 {
		t.Fatalf("MulMatT32: %v allocs/op, want 0", allocs)
	}
}

func TestArena32Reuse(t *testing.T) {
	a := NewArena32(0)
	a.Reset()
	m1 := a.Matrix(4, 8)
	if m1.Rows != 4 || m1.Cols != 8 || len(m1.Data) != 32 {
		t.Fatalf("arena shapes wrong: %dx%d len %d", m1.Rows, m1.Cols, len(m1.Data))
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		m := a.Matrix(4, 8)
		m.Data[0] = 1
	}); allocs != 0 {
		t.Fatalf("steady-state arena32 allocs: %v, want 0", allocs)
	}
}

func TestVector32Conversions(t *testing.T) {
	src := Vector{1.5, -2.25, 1e-40, 3}
	v := NewVector32(4)
	v.CopyFromF64(src)
	for i := range src {
		if float64(v[i]) != float64(float32(src[i])) {
			t.Fatalf("round trip %d: %v -> %v", i, src[i], v[i])
		}
	}
}

// BenchmarkGEMM32 measures the packed f32 kernel at the batched-GRU gate
// shape next to the f64 baseline (see BenchmarkGEMM).
func BenchmarkGEMM32(b *testing.B) {
	rng := NewRNG(77)
	for _, d := range []int{64, 128} {
		const batch = 64
		x := randMatrix32(rng, batch, d)
		w := randMatrix32(rng, 3*d, d)
		dst := NewMatrix32(batch, 3*d)
		b.Run(fmt.Sprintf("NT32-d%d-B%d", d, batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.MulMatT(dst, w)
			}
		})
		x64 := randMatrix(rng, batch, d)
		w64 := randMatrix(rng, 3*d, d)
		dst64 := NewMatrix(batch, 3*d)
		b.Run(fmt.Sprintf("NT64-d%d-B%d", d, batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x64.MulMatT(dst64, w64)
			}
		})
	}
}
