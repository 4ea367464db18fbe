// Package nn implements the neural-network building blocks needed by the
// paper's model: linear layers, activations, dropout, and recurrent cells
// (tanh RNN, GRU, LSTM) with hand-derived backward passes. It stands in for
// PyTorch 1.1, which the paper used; the model is small enough (hidden
// dimension 128) that explicit backpropagation is practical and fast.
//
// Conventions:
//   - Every layer exposes Forward (optionally returning a cache of the
//     intermediate values needed by the chain rule) and Backward, which
//     accumulates parameter gradients and returns/accumulates input
//     gradients. Gradients always *accumulate* so that backpropagation
//     through time can sum contributions across timesteps; call
//     Params.ZeroGrad between optimization steps.
//   - Recurrent cells follow the PyTorch GRUCell/LSTMCell weight layout and
//     gate equations so the paper's Figure 3 reference code maps 1:1.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a single learnable tensor: a flat value buffer plus an
// accumulated gradient buffer of the same length. Matrices view the flat
// buffer row-major through the Rows/Cols shape.
type Param struct {
	Name       string
	Rows, Cols int // Cols == 0 means a bias/vector parameter of length Rows
	Value      tensor.Vector
	Grad       tensor.Vector
}

// NewMatrixParam allocates a rows×cols matrix parameter.
func NewMatrixParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name, Rows: rows, Cols: cols,
		Value: tensor.NewVector(rows * cols),
		Grad:  tensor.NewVector(rows * cols),
	}
}

// NewVectorParam allocates a length-n vector parameter.
func NewVectorParam(name string, n int) *Param {
	return &Param{
		Name: name, Rows: n, Cols: 0,
		Value: tensor.NewVector(n),
		Grad:  tensor.NewVector(n),
	}
}

// Matrix returns a tensor.Matrix view over the parameter's values.
// Mutating the view mutates the parameter.
func (p *Param) Matrix() *tensor.Matrix {
	if p.Cols == 0 {
		panic(fmt.Sprintf("nn: param %q is a vector, not a matrix", p.Name))
	}
	return &tensor.Matrix{Rows: p.Rows, Cols: p.Cols, Data: p.Value}
}

// GradMatrix returns a tensor.Matrix view over the parameter's gradient.
func (p *Param) GradMatrix() *tensor.Matrix {
	if p.Cols == 0 {
		panic(fmt.Sprintf("nn: param %q is a vector, not a matrix", p.Name))
	}
	return &tensor.Matrix{Rows: p.Rows, Cols: p.Cols, Data: p.Grad}
}

// Len returns the number of scalar values in the parameter.
func (p *Param) Len() int { return len(p.Value) }

// Params is the ordered set of parameters of a model.
type Params []*Param

// ZeroGrad clears all accumulated gradients.
func (ps Params) ZeroGrad() {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// GradNorm returns the global L2 norm of all gradients.
func (ps Params) GradNorm() float64 {
	var s float64
	for _, p := range ps {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm scales all gradients so the global L2 norm does not exceed
// maxNorm. It returns the pre-clipping norm. A maxNorm <= 0 disables
// clipping.
func (ps Params) ClipGradNorm(maxNorm float64) float64 {
	norm := ps.GradNorm()
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range ps {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// AddGrads accumulates the gradients of other (same shapes, same order) into
// ps. This is how per-user worker gradients are merged during the paper's
// "custom parallelism" minibatch scheme (§7.1).
func (ps Params) AddGrads(other Params) {
	if len(ps) != len(other) {
		panic("nn: Params.AddGrads: parameter count mismatch")
	}
	for i, p := range ps {
		p.Grad.Add(other[i].Grad)
	}
}

// ScaleGrads multiplies every gradient by a (e.g. 1/batchSize).
func (ps Params) ScaleGrads(a float64) {
	for _, p := range ps {
		p.Grad.Scale(a)
	}
}

// CopyValuesTo copies parameter values into dst, which must have identical
// shapes. Used to clone models for worker replicas and snapshots.
func (ps Params) CopyValuesTo(dst Params) {
	if len(ps) != len(dst) {
		panic("nn: Params.CopyValuesTo: parameter count mismatch")
	}
	for i, p := range ps {
		if p.Len() != dst[i].Len() {
			panic(fmt.Sprintf("nn: Params.CopyValuesTo: size mismatch for %q", p.Name))
		}
		copy(dst[i].Value, p.Value)
	}
}

// InitUniform fills all parameters with Uniform(-bound, bound) values, the
// PyTorch default for recurrent cells (bound = 1/sqrt(hiddenSize)).
func (ps Params) InitUniform(rng *tensor.RNG, bound float64) {
	for _, p := range ps {
		rng.FillUniform(p.Value, -bound, bound)
	}
}
