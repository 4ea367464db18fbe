package tensor

// Arena is a bump allocator for the inference hot path: the batched
// serving tier carves its per-batch panels (packed inputs, hidden states,
// gate pre-activations) out of one slab, calls Reset between batches, and
// after the first batch at a given shape allocates nothing at all.
//
// Returned buffers are valid until the next Reset and their contents are
// unspecified (callers overwrite every element; MulMatT overwrites its
// destination itself). Matrix headers are pooled alongside the
// float64 slab, so Arena.Matrix is allocation-free at steady state too.
//
// An Arena is not safe for concurrent use; give each worker its own, like
// the serving tier's per-lane update scratch.
type Arena struct {
	slab []float64
	off  int
	// need accumulates the current cycle's total demand; when it outgrows
	// the slab, overflow requests fall back to make and Reset reallocates
	// the slab once at the high-water mark.
	need int

	hdrs []*Matrix
	hu   int
}

// NewArena returns an arena with capacity for n float64s (0 is valid: the
// slab grows to the observed demand after the first Reset cycle).
func NewArena(n int) *Arena {
	return &Arena{slab: make([]float64, n)}
}

// Reset recycles every allocation handed out since the previous Reset.
func (a *Arena) Reset() {
	if a.need > len(a.slab) {
		a.slab = make([]float64, a.need)
	}
	a.off, a.need, a.hu = 0, 0, 0
}

// alloc returns n float64s of unspecified content.
func (a *Arena) alloc(n int) []float64 {
	a.need += n
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	// Slab exhausted this cycle; satisfy from the heap now and grow the
	// slab to the new high-water mark at the next Reset.
	return make([]float64, n)
}

// Vector returns an arena-backed vector of length n (contents unspecified).
func (a *Arena) Vector(n int) Vector { return Vector(a.alloc(n)) }

// Matrix returns an arena-backed rows×cols matrix (contents unspecified).
func (a *Arena) Matrix(rows, cols int) *Matrix {
	var m *Matrix
	if a.hu < len(a.hdrs) {
		m = a.hdrs[a.hu]
	} else {
		m = new(Matrix)
		a.hdrs = append(a.hdrs, m)
	}
	a.hu++
	m.Rows, m.Cols = rows, cols
	m.Data = a.alloc(rows * cols)
	return m
}
