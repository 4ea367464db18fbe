// Package opt provides the optimizer used for model training: Adam (the
// paper trains its RNN with Adam at learning rate 1e-3, §7).
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Adam implements Adam (Kingma & Ba, 2015) with bias correction, matching
// PyTorch's defaults when constructed via NewAdam.
type Adam struct {
	params       nn.Params
	lr           float64
	beta1        float64
	beta2        float64
	eps          float64
	t            int
	m, v         []tensor.Vector
	ClipNorm     float64 // if > 0, clip the global grad norm before stepping
	LastGradNorm float64 // pre-clip global gradient norm of the last Step
}

// NewAdam returns an Adam optimizer over params with the given learning
// rate and PyTorch-default β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(params nn.Params, lr float64) *Adam {
	a := &Adam{
		params: params, lr: lr,
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]tensor.Vector, len(params)),
		v: make([]tensor.Vector, len(params)),
	}
	for i, p := range params {
		a.m[i] = tensor.NewVector(p.Len())
		a.v[i] = tensor.NewVector(p.Len())
	}
	return a
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.LastGradNorm = a.params.ClipGradNorm(a.ClipNorm)
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			p.Value[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}
