package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fillNormal fills v with N(0, std²) draws from rng.
func fillNormal(rng *RNG, v Vector, std float64) {
	for i := range v {
		v[i] = std * rng.NormFloat64()
	}
}

// fromRows builds a matrix from row slices of one length.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	got := v.Clone()
	got.Add(w)
	want := Vector{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Add: got %v, want %v", got, want)
		}
	}

	got = v.Clone()
	got.Scale(2)
	want = Vector{2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scale: got %v, want %v", got, want)
		}
	}
}

func TestVectorZeroAndFill(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Fill(7)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("Fill: got %v", v)
		}
	}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero: got %v", v)
		}
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Vector{1, 2}, Vector{}, Vector{3})
	want := Vector{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Concat length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat: got %v, want %v", got, want)
		}
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on length mismatch")
		}
	}()
	v := Vector{1, 2}
	v.Add(Vector{1, 2, 3})
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[0*3+1] = 5
	m.Data[1*3+2] = 7
	if m.Row(0)[1] != 5 || m.Row(1)[2] != 7 {
		t.Fatalf("Row/Data mismatch: %v", m.Data)
	}
	row := m.Row(1)
	row[0] = 9
	if m.Data[1*3+0] != 9 {
		t.Fatalf("Row must be a mutable view")
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := Vector{1, 0, -1}
	dst := NewVector(2)
	m.MulVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec: got %v", dst)
	}
	m.MulVecAdd(dst, x)
	if dst[0] != -4 || dst[1] != -4 {
		t.Fatalf("MulVecAdd: got %v", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := Vector{1, -1}
	dst := NewVector(3)
	m.MulVecTAdd(dst, x)
	want := Vector{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecTAdd: got %v, want %v", dst, want)
		}
	}
}

// MulVecTAdd into a zero vector must agree with an explicit transpose
// followed by MulVec.
func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		fillNormal(rng, m.Data, 1)
		x := NewVector(rows)
		fillNormal(rng, x, 1)

		viaT := NewVector(cols)
		m.MulVecTAdd(viaT, x)

		mt := NewMatrix(cols, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mt.Row(j)[i] = m.Row(i)[j]
			}
		}
		direct := NewVector(cols)
		mt.MulVec(direct, x)

		for j := 0; j < cols; j++ {
			if !almostEq(viaT[j], direct[j], 1e-12) {
				t.Fatalf("trial %d: MulVecTAdd disagrees with transpose: %v vs %v", trial, viaT, direct)
			}
		}
	}
}

func TestRankOneAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.RankOneAdd(2, Vector{1, -1}, Vector{1, 2, 3})
	want := [][]float64{{2, 4, 6}, {-2, -4, -6}}
	for i := range want {
		for j := range want[i] {
			if m.Row(i)[j] != want[i][j] {
				t.Fatalf("RankOneAdd: got %v", m.Data)
			}
		}
	}
}

func TestMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on shape mismatch")
		}
	}()
	NewMatrix(2, 2).MulVec(NewVector(2), NewVector(3))
}

// Property: MulVec distributes over vector addition.
func TestMulVecLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m := NewMatrix(rows, cols)
		fillNormal(rng, m.Data, 1)
		x, y := NewVector(cols), NewVector(cols)
		fillNormal(rng, x, 1)
		fillNormal(rng, y, 1)

		xy := x.Clone()
		xy.Add(y)
		sum := NewVector(rows)
		m.MulVec(sum, xy)

		mx, my := NewVector(rows), NewVector(rows)
		m.MulVec(mx, x)
		m.MulVec(my, y)
		mx.Add(my)

		for i := range sum {
			if !almostEq(sum[i], mx[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RankOneAdd then MulVec equals original MulVec plus a*(v·x)*u.
func TestRankOneAddConsistentWithMulVec(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		fillNormal(rng, m.Data, 1)
		u, v, x := NewVector(rows), NewVector(cols), NewVector(cols)
		fillNormal(rng, u, 1)
		fillNormal(rng, v, 1)
		fillNormal(rng, x, 1)
		a := rng.NormFloat64()

		before := NewVector(rows)
		m.MulVec(before, x)
		m2 := NewMatrix(rows, cols)
		copy(m2.Data, m.Data)
		m2.RankOneAdd(a, u, v)
		after := NewVector(rows)
		m2.MulVec(after, x)

		var vx float64
		for j := range v {
			vx += v[j] * x[j]
		}
		s := a * vx
		for i := range after {
			if !almostEq(after[i], before[i]+s*u[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
