package tensor

// Float32 twin of the core vector/matrix surface, for the serving fast
// tier. The f64 types stay the training substrate and the bit-exact parity
// reference; Vector32/Matrix32 carry only the inference-time operations the
// fused GRU path needs (matvec with the sparse fast path, the NT GEMM in
// gemm32.go, and an arena in arena32.go).
//
// f32 accumulation contract: every dot product in this tier — sparse or
// dense, matvec or GEMM, assembly or pure Go — accumulates into four
// independent lane chains, where the term at index k lands in lane k%4 in
// ascending k order, and the lanes combine as (l0+l2)+(l1+l3). That is the
// natural shape of a 4-wide packed SSE reduction, so the amd64 kernel can
// use the vector units while every other path (scalar replay, edge tiles,
// non-amd64 builds) reproduces its results bit-for-bit. The f64 tier's
// single-chain contract does not apply here; cross-tier agreement is
// bounded-error, not bit-exact, and is pinned by the serving equivalence
// tests.

// Vector32 is a dense float32 vector.
type Vector32 []float32

// NewVector32 returns a zero vector of length n.
func NewVector32(n int) Vector32 { return make(Vector32, n) }

// Zero sets every element of v to 0.
func (v Vector32) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFromF64 rounds src into v element-wise. Panics if lengths differ.
func (v Vector32) CopyFromF64(src Vector) {
	checkLen("Vector32.CopyFromF64", len(v), len(src))
	for i, x := range src {
		v[i] = float32(x)
	}
}

// Matrix32 is a dense row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix32 returns a zero Rows×Cols matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		lenPanic("tensor.NewMatrix32", rows, cols)
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, x float32) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a mutable slice view.
func (m *Matrix32) Row(i int) Vector32 { return Vector32(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// gatherNonzeros32 is gatherNonzeros for float32 vectors: it fills buf with
// the indices of x's nonzero entries, returning nil when a dense pass is
// preferable. Same thresholds as the f64 path, so a row routes the same way
// in either tier. Unlike the f64 version this collects in a single pass
// (append until the density limit), because on the f32 hot path the scan
// itself shows up: the batched GRU gathers every input row of every batch.
func gatherNonzeros32(buf *[]int32, x Vector32) []int32 {
	if len(x) < sparseCutoff {
		return nil
	}
	limit := len(x) / 4
	idx := (*buf)[:0]
	for j, v := range x {
		if v != 0 {
			if len(idx)+1 >= limit {
				*buf = idx
				return nil
			}
			idx = append(idx, int32(j))
		}
	}
	*buf = idx
	return idx
}

// MulVec computes dst = m · x with the sparse fast path. The sparse pass
// keeps the lane contract by routing the term at column j into lane j%4, so
// its results are bit-identical to the dense pass (skipped zero terms
// contribute ±0 per lane, with the same sign-of-zero caveat the f64 tier
// documents on MulVecDense).
func (m *Matrix32) MulVec(dst, x Vector32) {
	checkLen("Matrix32.MulVec x", m.Cols, len(x))
	checkLen("Matrix32.MulVec dst", m.Rows, len(dst))
	if len(x) >= sparseCutoff {
		buf := nzPool.Get().(*[]int32)
		if idx := gatherNonzeros32(buf, x); idx != nil {
			for i := 0; i < m.Rows; i++ {
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				var lanes [4]float32
				for _, j := range idx {
					lanes[j&3] += row[j] * x[j]
				}
				dst[i] = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
			}
			nzPool.Put(buf)
			return
		}
		nzPool.Put(buf)
	}
	m.MulVecDense(dst, x)
}

// MulVecDense is MulVec without the sparsity scan: four lane chains per
// row in ascending k, combined as (l0+l2)+(l1+l3).
func (m *Matrix32) MulVecDense(dst, x Vector32) {
	checkLen("Matrix32.MulVecDense x", m.Cols, len(x))
	checkLen("Matrix32.MulVecDense dst", m.Rows, len(dst))
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var l0, l1, l2, l3 float32
		k := 0
		for ; k+4 <= len(row); k += 4 {
			l0 += row[k] * x[k]
			l1 += row[k+1] * x[k+1]
			l2 += row[k+2] * x[k+2]
			l3 += row[k+3] * x[k+3]
		}
		for ; k < len(row); k++ {
			switch k & 3 {
			case 0:
				l0 += row[k] * x[k]
			case 1:
				l1 += row[k] * x[k]
			case 2:
				l2 += row[k] * x[k]
			default:
				l3 += row[k] * x[k]
			}
		}
		dst[i] = (l0 + l2) + (l1 + l3)
	}
}

// MulVecT computes dst = mᵀ · x (m: len(x) × len(dst)) when x routes
// sparse, as an accumulation of x's nonzero rows of m: dst is zeroed, then
// for each nonzero j in ascending order, dst += x[j] · m.Row(j). Returns
// false — leaving dst untouched — when x is dense by the MulVec thresholds;
// the caller falls back to the 4-lane dense path with the untransposed
// matrix.
//
// This is the fast shape for the GRU input side: each nonzero touches one
// contiguous row instead of one scattered element per output row. The
// accumulation contract here is per-element single chains in ascending
// nonzero order — NOT the 4-lane contract — so results differ bitwise from
// MulVec on the same operands. That is sound because routing is a
// deterministic function of x alone: every f32 path (scalar and batched)
// makes the same sparse-or-dense decision for the same row and therefore
// lands in the same contract.
func (m *Matrix32) MulVecT(dst, x Vector32) bool {
	checkLen("Matrix32.MulVecT x", m.Rows, len(x))
	checkLen("Matrix32.MulVecT dst", m.Cols, len(dst))
	if len(x) < sparseCutoff {
		return false
	}
	buf := nzPool.Get().(*[]int32)
	idx := gatherNonzeros32(buf, x)
	if idx == nil {
		nzPool.Put(buf)
		return false
	}
	dst.Zero()
	for _, j := range idx {
		xj := x[j]
		row := m.Data[int(j)*m.Cols : (int(j)+1)*m.Cols]
		for i, w := range row {
			dst[i] += xj * w
		}
	}
	nzPool.Put(buf)
	return true
}
