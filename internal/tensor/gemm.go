package tensor

// Cache-blocked NT GEMM for the batched inference path.
//
// The serving tier batches B session finalisations into matrix-matrix
// products so the 3h×d GRU weight matrices are streamed from memory once
// per step instead of once per session — the classic fix for the
// memory-bound matrix-vector regime. One product is provided,
//
//	MulMatT: dst = m · otherᵀ       (NT)
//
// because weights are stored row-major as (out × in): a row-major (B × in)
// panel of packed inputs times the transposed weight gives a (B × out)
// panel of gate pre-activations with fully contiguous inner loops on both
// operands.
//
// Bit-exactness contract: every output element is accumulated strictly in
// ascending k with a single accumulator chain that starts at +0, exactly
// like MulVecDense's inner loop, with a separately rounded multiply and add
// per term (no FMA). Batched GRU states are therefore bit-identical to the
// per-session MulVec path, which the serving equivalence tests pin down.
//
// Two kernels implement the contract. The pure-Go one in this file is the
// portable definition: cache blocking over k spills the running partial sum
// to dst between blocks — a float64 round-trip through memory is exact —
// and the 4×4 register-tiled micro-kernel keeps one independent accumulator
// per output element, never a split/pairwise reduction. On amd64 with AVX2
// (gemm_amd64.go) full 6-column tiles go through an assembly micro-kernel
// whose vector lanes are different output elements, so the vector width
// cannot change any element's chain; the Go kernel keeps the ragged N%6
// columns, non-AVX2 machines and every other GOARCH.

// Blocking parameters of the Go kernel. The k and column blocks are sized
// so one weight panel (kc × nc float64s ≈ 2·10⁵ B) stays L2-resident while
// row panels stream through; the 4×4 micro-tile keeps 16 scalar
// accumulators live — amd64 has 16 XMM registers, so the compiler spills a
// few operands per k, which is part of why this kernel runs at a fraction
// of the machine's mul+add peak.
const (
	gemmMC = 64  // row cache block
	gemmKC = 256 // k-dimension cache block
	gemmNC = 128 // column cache block
)

// MostlySparse reports whether the rows of m clear the sparse-path
// threshold of MulVec (row length ≥ sparseCutoff, panel density < 1/4).
// The batched GRU uses it to route input panels: packed one-hot update
// inputs go row-by-row through the sparse matrix-vector path, dense panels
// through the GEMM — both bit-identical, very different work.
func (m *Matrix) MostlySparse() bool {
	if m.Cols < sparseCutoff {
		return false
	}
	nz := 0
	limit := len(m.Data) / 4
	for _, v := range m.Data {
		if v != 0 {
			nz++
			if nz >= limit {
				return false
			}
		}
	}
	return true
}

// MulMatT computes dst = m · otherᵀ. dst must be m.Rows × other.Rows and is
// overwritten; it must not alias m or other. Both operands are traversed
// row-contiguously, so this is the preferred form when the right-hand side
// is a row-major (out × in) weight matrix.
func (m *Matrix) MulMatT(dst, other *Matrix) {
	checkLen("Matrix.MulMatT inner", m.Cols, other.Cols)
	checkLen("Matrix.MulMatT rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMatT cols", dst.Cols, other.Rows)
	gemmNT(dst, m, other)
}

// gemmNTGo is the portable kernel: it computes dst[:, j0:] = a · b[j0:, :]ᵀ
// (a: M×K, b: N×K, dst: M×N) with cache blocking and a 4×4 micro-kernel of
// contiguous dot products. The columns are zeroed first because the
// k-blocked tiles accumulate into dst.
func gemmNTGo(dst, a, b *Matrix, j0 int) {
	M, K, N := a.Rows, a.Cols, b.Rows
	for i := 0; i < M; i++ {
		clear(dst.Data[i*N+j0 : (i+1)*N])
	}
	for kc := 0; kc < K; kc += gemmKC {
		kb := min(gemmKC, K-kc)
		for jc := j0; jc < N; jc += gemmNC {
			nc := min(gemmNC, N-jc)
			for ic := 0; ic < M; ic += gemmMC {
				mc := min(gemmMC, M-ic)
				gemmNTBlock(dst, a, b, ic, jc, kc, mc, nc, kb)
			}
		}
	}
}

func gemmNTBlock(dst, a, b *Matrix, ic, jc, kc, mc, nc, kb int) {
	i := 0
	for ; i+4 <= mc; i += 4 {
		j := 0
		for ; j+4 <= nc; j += 4 {
			microNT4x4(dst, a, b, ic+i, jc+j, kc, kb)
		}
		if j < nc {
			gemmNTEdge(dst, a, b, ic+i, 4, jc+j, nc-j, kc, kb)
		}
	}
	if i < mc {
		gemmNTEdge(dst, a, b, ic+i, mc-i, jc, nc, kc, kb)
	}
}

// microNT4x4 computes dst[i0:i0+4, j0:j0+4] += a[i0:i0+4, kc:kc+kb] ·
// b[j0:j0+4, kc:kc+kb]ᵀ — sixteen simultaneous dot products over four
// contiguous a-rows and four contiguous b-rows.
func microNT4x4(dst, a, b *Matrix, i0, j0, kc, kb int) {
	la, lb, ld := a.Cols, b.Cols, dst.Cols
	a0 := a.Data[(i0+0)*la+kc : (i0+0)*la+kc+kb : (i0+0)*la+kc+kb]
	a1 := a.Data[(i0+1)*la+kc : (i0+1)*la+kc+kb : (i0+1)*la+kc+kb]
	a2 := a.Data[(i0+2)*la+kc : (i0+2)*la+kc+kb : (i0+2)*la+kc+kb]
	a3 := a.Data[(i0+3)*la+kc : (i0+3)*la+kc+kb : (i0+3)*la+kc+kb]
	b0 := b.Data[(j0+0)*lb+kc : (j0+0)*lb+kc+kb : (j0+0)*lb+kc+kb]
	b1 := b.Data[(j0+1)*lb+kc : (j0+1)*lb+kc+kb : (j0+1)*lb+kc+kb]
	b2 := b.Data[(j0+2)*lb+kc : (j0+2)*lb+kc+kb : (j0+2)*lb+kc+kb]
	b3 := b.Data[(j0+3)*lb+kc : (j0+3)*lb+kc+kb : (j0+3)*lb+kc+kb]
	d0 := dst.Data[(i0+0)*ld+j0 : (i0+0)*ld+j0+4 : (i0+0)*ld+j0+4]
	d1 := dst.Data[(i0+1)*ld+j0 : (i0+1)*ld+j0+4 : (i0+1)*ld+j0+4]
	d2 := dst.Data[(i0+2)*ld+j0 : (i0+2)*ld+j0+4 : (i0+2)*ld+j0+4]
	d3 := dst.Data[(i0+3)*ld+j0 : (i0+3)*ld+j0+4 : (i0+3)*ld+j0+4]
	c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
	c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
	c20, c21, c22, c23 := d2[0], d2[1], d2[2], d2[3]
	c30, c31, c32, c33 := d3[0], d3[1], d3[2], d3[3]
	for k := 0; k < kb; k++ {
		w0, w1, w2, w3 := b0[k], b1[k], b2[k], b3[k]
		av := a0[k]
		c00 += av * w0
		c01 += av * w1
		c02 += av * w2
		c03 += av * w3
		av = a1[k]
		c10 += av * w0
		c11 += av * w1
		c12 += av * w2
		c13 += av * w3
		av = a2[k]
		c20 += av * w0
		c21 += av * w1
		c22 += av * w2
		c23 += av * w3
		av = a3[k]
		c30 += av * w0
		c31 += av * w1
		c32 += av * w2
		c33 += av * w3
	}
	d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
	d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	d2[0], d2[1], d2[2], d2[3] = c20, c21, c22, c23
	d3[0], d3[1], d3[2], d3[3] = c30, c31, c32, c33
}

func gemmNTEdge(dst, a, b *Matrix, i0, ni, j0, nj, kc, kb int) {
	for i := i0; i < i0+ni; i++ {
		arow := a.Data[i*a.Cols+kc : i*a.Cols+kc+kb]
		drow := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j0+nj]
		for j := range drow {
			brow := b.Data[(j0+j)*b.Cols+kc : (j0+j)*b.Cols+kc+kb]
			acc := drow[j]
			for k, av := range arow {
				acc += av * brow[k]
			}
			drow[j] = acc
		}
	}
}
