package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic builds a single-parameter model with loss 0.5*(w - target)².
func quadratic(n int, init float64) (nn.Params, func() float64, func()) {
	p := nn.NewVectorParam("w", n)
	p.Value.Fill(init)
	target := 3.0
	params := nn.Params{p}
	loss := func() float64 {
		var s float64
		for _, w := range p.Value {
			s += 0.5 * (w - target) * (w - target)
		}
		return s
	}
	backward := func() {
		params.ZeroGrad()
		for i, w := range p.Value {
			p.Grad[i] = w - target
		}
	}
	return params, loss, backward
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params, loss, backward := quadratic(5, -10)
	adam := NewAdam(params, 0.1)
	for i := 0; i < 2000; i++ {
		backward()
		adam.Step()
	}
	if l := loss(); l > 1e-6 {
		t.Fatalf("Adam failed to converge: loss %v", l)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr regardless of the
	// gradient scale (for a constant gradient).
	for _, g := range []float64{1e-4, 1, 1e4} {
		p := nn.NewVectorParam("w", 1)
		adam := NewAdam(nn.Params{p}, 0.001)
		p.Grad[0] = g
		adam.Step()
		if math.Abs(math.Abs(p.Value[0])-0.001) > 1e-6 {
			t.Fatalf("first Adam step with grad %v moved %v, want ≈lr", g, p.Value[0])
		}
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := nn.NewVectorParam("w", 4)
	adam := NewAdam(nn.Params{p}, 0.001)
	adam.ClipNorm = 1
	p.Grad.Fill(100)
	adam.Step()
	if adam.LastGradNorm != 200 { // sqrt(4*100²)=200
		t.Fatalf("LastGradNorm: got %v, want 200", adam.LastGradNorm)
	}
}

func TestAdamDeterministic(t *testing.T) {
	run := func() tensor.Vector {
		params, _, backward := quadratic(3, -1)
		adam := NewAdam(params, 0.01)
		for i := 0; i < 50; i++ {
			backward()
			adam.Step()
		}
		return params[0].Value
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Adam must be deterministic")
		}
	}
}
