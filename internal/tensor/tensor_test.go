package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

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
	got.Sub(w)
	want = Vector{-3, -3, -3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sub: got %v, want %v", got, want)
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

	got = v.Clone()
	got.AXPY(0.5, w)
	want = Vector{3, 4.5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AXPY: got %v, want %v", got, want)
		}
	}

	got = v.Clone()
	got.MulElem(w)
	want = Vector{4, 10, 18}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulElem: got %v, want %v", got, want)
		}
	}

	if d := v.Dot(w); d != 32 {
		t.Fatalf("Dot: got %v, want 32", d)
	}
	if s := v.Sum(); s != 6 {
		t.Fatalf("Sum: got %v, want 6", s)
	}
	if n := (Vector{3, 4}).Norm2(); n != 5 {
		t.Fatalf("Norm2: got %v, want 5", n)
	}
	if m := w.Max(); m != 6 {
		t.Fatalf("Max: got %v, want 6", m)
	}
	if i := w.ArgMax(); i != 2 {
		t.Fatalf("ArgMax: got %v, want 2", i)
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

func TestVectorEmptyEdgeCases(t *testing.T) {
	var v Vector
	if v.Sum() != 0 {
		t.Errorf("empty Sum != 0")
	}
	if !math.IsInf(v.Max(), -1) {
		t.Errorf("empty Max should be -Inf")
	}
	if v.ArgMax() != -1 {
		t.Errorf("empty ArgMax should be -1")
	}
	if v.Norm2() != 0 {
		t.Errorf("empty Norm2 != 0")
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
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	if m.At(0, 1) != 5 || m.At(1, 2) != 7 {
		t.Fatalf("Set/At mismatch: %v", m.Data)
	}
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatalf("Row must be a mutable view")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape: got %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1): got %v", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatalf("empty FromRows: got %dx%d", empty.Rows, empty.Cols)
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
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
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := Vector{1, -1}
	dst := NewVector(3)
	m.MulVecT(dst, x)
	want := Vector{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT: got %v, want %v", dst, want)
		}
	}
}

// MulVecT must agree with an explicit transpose followed by MulVec.
func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		rng.FillNormal(m.Data, 1)
		x := NewVector(rows)
		rng.FillNormal(x, 1)

		viaT := NewVector(cols)
		m.MulVecT(viaT, x)

		mt := NewMatrix(cols, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mt.Set(j, i, m.At(i, j))
			}
		}
		direct := NewVector(cols)
		mt.MulVec(direct, x)

		for j := 0; j < cols; j++ {
			if !almostEq(viaT[j], direct[j], 1e-12) {
				t.Fatalf("trial %d: MulVecT disagrees with transpose: %v vs %v", trial, viaT, direct)
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
			if m.At(i, j) != want[i][j] {
				t.Fatalf("RankOneAdd: got %v", m.Data)
			}
		}
	}
}

func TestMatrixAddScaleClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Scale(2)
	a.Add(b)
	if a.At(1, 1) != 12 {
		t.Fatalf("Add/Scale: got %v", a.Data)
	}
	b.Zero()
	if b.FrobeniusNorm() != 0 {
		t.Fatalf("Zero: got %v", b.Data)
	}
	c := FromRows([][]float64{{3, 4}})
	if n := c.FrobeniusNorm(); n != 5 {
		t.Fatalf("FrobeniusNorm: got %v", n)
	}
}

func TestMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on shape mismatch")
		}
	}()
	NewMatrix(2, 2).Add(NewMatrix(2, 3))
}

// Property: dot product is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(16)
		a, b, c := NewVector(n), NewVector(n), NewVector(n)
		rng.FillNormal(a, 1)
		rng.FillNormal(b, 1)
		rng.FillNormal(c, 1)
		alpha := rng.NormFloat64()

		if !almostEq(a.Dot(b), b.Dot(a), 1e-9) {
			return false
		}
		// (a + alpha*c)·b == a·b + alpha*(c·b)
		lhs := a.Clone()
		lhs.AXPY(alpha, c)
		return almostEq(lhs.Dot(b), a.Dot(b)+alpha*c.Dot(b), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec distributes over vector addition.
func TestMulVecLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m := NewMatrix(rows, cols)
		rng.FillNormal(m.Data, 1)
		x, y := NewVector(cols), NewVector(cols)
		rng.FillNormal(x, 1)
		rng.FillNormal(y, 1)

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
		rng.FillNormal(m.Data, 1)
		u, v, x := NewVector(rows), NewVector(cols), NewVector(cols)
		rng.FillNormal(u, 1)
		rng.FillNormal(v, 1)
		rng.FillNormal(x, 1)
		a := rng.NormFloat64()

		before := NewVector(rows)
		m.MulVec(before, x)
		m2 := m.Clone()
		m2.RankOneAdd(a, u, v)
		after := NewVector(rows)
		m2.MulVec(after, x)

		s := a * v.Dot(x)
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
