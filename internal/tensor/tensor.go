// Package tensor provides the dense linear-algebra primitives used by the
// neural-network stack in this repository. It implements just enough of a
// BLAS-like surface (vector ops, matrix-vector and matrix-matrix products,
// rank-1 updates) for hand-written forward and backward passes, using only
// the standard library.
//
// All values are float64. Matrices are dense and row-major. The package is
// deliberately allocation-transparent: every routine that produces a result
// has an "into destination" form so hot loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Add accumulates other into v element-wise. Panics if lengths differ.
func (v Vector) Add(other Vector) {
	checkLen("Vector.Add", len(v), len(other))
	for i, x := range other {
		v[i] += x
	}
}

// Sub subtracts other from v element-wise.
func (v Vector) Sub(other Vector) {
	checkLen("Vector.Sub", len(v), len(other))
	for i, x := range other {
		v[i] -= x
	}
}

// Scale multiplies every element of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AXPY computes v += a*x.
func (v Vector) AXPY(a float64, x Vector) {
	checkLen("Vector.AXPY", len(v), len(x))
	for i, xi := range x {
		v[i] += a * xi
	}
}

// MulElem multiplies v element-wise by other.
func (v Vector) MulElem(other Vector) {
	checkLen("Vector.MulElem", len(v), len(other))
	for i, x := range other {
		v[i] *= x
	}
}

// Dot returns the inner product of v and other.
func (v Vector) Dot(other Vector) float64 {
	checkLen("Vector.Dot", len(v), len(other))
	var s float64
	for i, x := range other {
		s += v[i] * x
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum element of v; -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the maximum element, or -1 for empty v.
func (v Vector) ArgMax() int {
	idx, m := -1, math.Inf(-1)
	for i, x := range v {
		if x > m {
			m, idx = x, i
		}
	}
	return idx
}

// Concat returns the concatenation of the given vectors as a new vector.
func Concat(vs ...Vector) Vector {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		checkLen("tensor.FromRows", cols, len(r))
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a mutable slice view.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add accumulates other into m. Panics if shapes differ.
func (m *Matrix) Add(other *Matrix) {
	m.checkShape("Matrix.Add", other)
	for i, x := range other.Data {
		m.Data[i] += x
	}
}

// AXPY computes m += a*x.
func (m *Matrix) AXPY(a float64, x *Matrix) {
	m.checkShape("Matrix.AXPY", x)
	for i, xi := range x.Data {
		m.Data[i] += a * xi
	}
}

// sparseCutoff gates the sparse fast paths: for vectors at least this long
// whose nonzero fraction is below 1/4, gathering the nonzero indices first
// is cheaper than streaming the zeros. The neural models in this repository
// feed mostly one-hot inputs (a handful of ones in a ~300-dim vector), so
// this path dominates training cost.
const sparseCutoff = 64

// nzPool recycles the nonzero-index buffers of the sparse fast paths. The
// buffers never escape the routine that gathered them, so a pool makes the
// hot loops allocation-free at steady state (the old per-call make was the
// last allocation in the serving finalisation path).
var nzPool = sync.Pool{New: func() any { return new([]int32) }}

// gatherNonzeros fills buf with the indices of x's nonzero entries,
// returning nil when a dense pass is preferable. The returned slice aliases
// buf's storage; callers own buf and must return it to nzPool when done.
func gatherNonzeros(buf *[]int32, x Vector) []int32 {
	if len(x) < sparseCutoff {
		return nil
	}
	nz := 0
	limit := len(x) / 4
	for _, v := range x {
		if v != 0 {
			nz++
			if nz >= limit {
				return nil
			}
		}
	}
	idx := (*buf)[:0]
	for j, v := range x {
		if v != 0 {
			idx = append(idx, int32(j))
		}
	}
	*buf = idx
	return idx
}

// MulVec computes dst = m · x where x has length Cols and dst length Rows.
// dst is overwritten. It must not alias x.
func (m *Matrix) MulVec(dst, x Vector) {
	checkLen("Matrix.MulVec x", m.Cols, len(x))
	checkLen("Matrix.MulVec dst", m.Rows, len(dst))
	if len(x) >= sparseCutoff {
		buf := nzPool.Get().(*[]int32)
		if idx := gatherNonzeros(buf, x); idx != nil {
			for i := 0; i < m.Rows; i++ {
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				var s float64
				for _, j := range idx {
					s += row[j] * x[j]
				}
				dst[i] = s
			}
			nzPool.Put(buf)
			return
		}
		nzPool.Put(buf)
	}
	m.MulVecDense(dst, x)
}

// MulVecDense is MulVec without the sparsity scan, for callers that know x
// is dense (e.g. a GRU hidden state after the first step). Results are
// bit-identical to MulVec: skipped zero terms contribute ±0, which never
// changes an IEEE-754 running sum that is not itself −0, and a running sum
// of products can only be −0 before any nonzero term has been added.
func (m *Matrix) MulVecDense(dst, x Vector) {
	checkLen("Matrix.MulVecDense x", m.Cols, len(x))
	checkLen("Matrix.MulVecDense dst", m.Rows, len(dst))
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MulVecAdd computes dst += m · x, taking the same sparse fast path as
// MulVec (on zeroed dst the two are bit-identical — see the property test).
func (m *Matrix) MulVecAdd(dst, x Vector) {
	checkLen("Matrix.MulVecAdd x", m.Cols, len(x))
	checkLen("Matrix.MulVecAdd dst", m.Rows, len(dst))
	if len(x) >= sparseCutoff {
		buf := nzPool.Get().(*[]int32)
		if idx := gatherNonzeros(buf, x); idx != nil {
			for i := 0; i < m.Rows; i++ {
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				var s float64
				for _, j := range idx {
					s += row[j] * x[j]
				}
				dst[i] += s
			}
			nzPool.Put(buf)
			return
		}
		nzPool.Put(buf)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] += s
	}
}

// MulVecT computes dst = mᵀ · x where x has length Rows and dst length Cols.
// dst is overwritten. It must not alias x.
func (m *Matrix) MulVecT(dst, x Vector) {
	checkLen("Matrix.MulVecT x", m.Rows, len(x))
	checkLen("Matrix.MulVecT dst", m.Cols, len(dst))
	for j := range dst {
		dst[j] = 0
	}
	m.MulVecTAdd(dst, x)
}

// MulVecTAdd computes dst += mᵀ · x.
func (m *Matrix) MulVecTAdd(dst, x Vector) {
	checkLen("Matrix.MulVecTAdd x", m.Rows, len(x))
	checkLen("Matrix.MulVecTAdd dst", m.Cols, len(dst))
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += xi * w
		}
	}
}

// RankOneAdd computes m += a · u·vᵀ (outer-product accumulate), with u of
// length Rows and v of length Cols. Used for weight-gradient accumulation,
// where v is frequently a mostly-one-hot input vector.
func (m *Matrix) RankOneAdd(a float64, u, v Vector) {
	checkLen("Matrix.RankOneAdd u", m.Rows, len(u))
	checkLen("Matrix.RankOneAdd v", m.Cols, len(v))
	if len(v) >= sparseCutoff {
		buf := nzPool.Get().(*[]int32)
		if idx := gatherNonzeros(buf, v); idx != nil {
			for i := 0; i < m.Rows; i++ {
				s := a * u[i]
				if s == 0 {
					continue
				}
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				for _, j := range idx {
					row[j] += s * v[j]
				}
			}
			nzPool.Put(buf)
			return
		}
		nzPool.Put(buf)
	}
	for i := 0; i < m.Rows; i++ {
		s := a * u[i]
		if s == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, vj := range v {
			row[j] += s * vj
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

func (m *Matrix) checkShape(op string, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s: shape mismatch %dx%d vs %dx%d",
			op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func checkLen(op string, want, got int) {
	if want != got {
		lenPanic(op, want, got)
	}
}

// lenPanic is kept out of line so that inlining checkLen into the
// MulVec*/GEMM hot paths does not drag the Sprintf interface
// conversions (and their heap escapes) into functions pinned by the
// ppescape gate. The fast path of checkLen is a compare and a branch.
//
//go:noinline
func lenPanic(op string, want, got int) {
	panic(fmt.Sprintf("tensor: %s: length mismatch: want %d, got %d", op, want, got))
}
