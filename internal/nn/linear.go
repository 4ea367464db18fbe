package nn

import (
	"math"

	"repro/internal/tensor"
)

// Linear is a fully connected layer: y = W·x + b with W of shape out×in.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear allocates a Linear layer with Xavier/Glorot-uniform initialised
// weights and zero biases.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: NewMatrixParam(name+".W", out, in),
		B: NewVectorParam(name+".b", out),
	}
	bound := math.Sqrt(6.0 / float64(in+out))
	rng.FillUniform(l.W.Value, -bound, bound)
	return l
}

// Params returns the layer's learnable parameters.
func (l *Linear) Params() Params { return Params{l.W, l.B} }

// Forward computes dst = W·x + b. dst must have length Out and must not
// alias x.
func (l *Linear) Forward(dst, x tensor.Vector) {
	// A stack view, as the GRU inference steps build theirs: Param.Matrix
	// returns a heap pointer, one allocation per call on the predict path.
	w := tensor.Matrix{Rows: l.Out, Cols: l.In, Data: l.W.Value}
	w.MulVec(dst, x)
	dst.Add(l.B.Value)
}

// Backward accumulates parameter gradients for the forward pass that
// consumed input x and produced output gradient dy, and accumulates the
// input gradient into dx (pass nil to skip input-gradient computation, e.g.
// at the first layer).
func (l *Linear) Backward(dx, x, dy tensor.Vector) {
	l.W.GradMatrix().RankOneAdd(1, dy, x)
	l.B.Grad.Add(dy)
	if dx != nil {
		l.W.Matrix().MulVecTAdd(dx, dy)
	}
}
