package tensor

// Arena32 is the float32 twin of Arena: a bump allocator for the f32
// inference hot path, with the same need-tracking growth (overflow falls
// back to the heap, Reset reallocates once at the high-water mark) and
// pooled Matrix32 headers. Not safe for concurrent use.
type Arena32 struct {
	slab []float32
	off  int
	need int

	hdrs []*Matrix32
	hu   int
}

// NewArena32 returns an arena with capacity for n float32s (0 is valid:
// the slab grows to the observed demand after the first Reset cycle).
func NewArena32(n int) *Arena32 {
	return &Arena32{slab: make([]float32, n)}
}

// Reset recycles every allocation handed out since the previous Reset.
func (a *Arena32) Reset() {
	if a.need > len(a.slab) {
		a.slab = make([]float32, a.need)
	}
	a.off, a.need, a.hu = 0, 0, 0
}

// alloc returns n float32s of unspecified content.
func (a *Arena32) alloc(n int) []float32 {
	a.need += n
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	return make([]float32, n)
}

// Matrix returns an arena-backed rows×cols matrix (contents unspecified).
func (a *Arena32) Matrix(rows, cols int) *Matrix32 {
	var m *Matrix32
	if a.hu < len(a.hdrs) {
		m = a.hdrs[a.hu]
	} else {
		m = new(Matrix32)
		a.hdrs = append(a.hdrs, m)
	}
	a.hu++
	m.Rows, m.Cols = rows, cols
	m.Data = a.alloc(rows * cols)
	return m
}
