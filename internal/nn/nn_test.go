package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// fillNormal fills v with N(0, std²) draws from rng.
func fillNormal(rng *tensor.RNG, v tensor.Vector, std float64) {
	for i := range v {
		v[i] = std * rng.NormFloat64()
	}
}

// flatten returns a copy of all parameter values as one vector, in order.
func flatten(ps Params) tensor.Vector {
	var out tensor.Vector
	for _, p := range ps {
		out = append(out, p.Value...)
	}
	return out
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", s)
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("Sigmoid(100) = %v, want ≈1", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("Sigmoid(-100) = %v, want ≈0", s)
	}
	// Stability: no NaN at extremes.
	for _, x := range []float64{-1e6, 1e6, -745, 745} {
		if s := Sigmoid(x); math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("Sigmoid(%v) = %v", x, s)
		}
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 50)
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVecActivations(t *testing.T) {
	x := tensor.Vector{-2, 0, 3}
	dst := tensor.NewVector(3)
	ReLUVec(dst, x)
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 3 {
		t.Fatalf("ReLUVec: %v", dst)
	}
}

// lossEps keeps log-loss finite when a model emits a hard 0 or 1.
const lossEps = 1e-12

// BCELoss is the reference binary cross-entropy ("log loss", §6.3) of
// predicted probability p against label y ∈ {0, 1}:
//
//	−[y·log(p) + (1−y)·log(1−p)]
//
// with p clamped to [lossEps, 1−lossEps]. BCEWithLogits must equal it
// composed with the sigmoid.
func BCELoss(p, y float64) float64 {
	p = math.Min(math.Max(p, lossEps), 1-lossEps)
	if y >= 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

func TestBCELoss(t *testing.T) {
	if l := BCELoss(0.5, 1); math.Abs(l-math.Ln2) > 1e-12 {
		t.Fatalf("BCELoss(0.5, 1) = %v, want ln2", l)
	}
	if l := BCELoss(0.5, 0); math.Abs(l-math.Ln2) > 1e-12 {
		t.Fatalf("BCELoss(0.5, 0) = %v, want ln2", l)
	}
	// Perfect predictions have ≈0 loss, wrong-confident predictions are
	// large but finite.
	if l := BCELoss(1, 1); l > 1e-10 {
		t.Fatalf("BCELoss(1,1) = %v", l)
	}
	if l := BCELoss(0, 1); math.IsInf(l, 0) || l < 10 {
		t.Fatalf("BCELoss(0,1) = %v, want large finite", l)
	}
}

func TestBCEWithLogitsMatchesComposition(t *testing.T) {
	f := func(logit, label float64) bool {
		if math.IsNaN(logit) || math.IsInf(logit, 0) {
			return true
		}
		// Stay away from the clamp region of BCELoss (|logit| < 20 keeps
		// probabilities well above lossEps).
		logit = math.Mod(logit, 20)
		y := 0.0
		if label > 0 {
			y = 1.0
		}
		loss, dLogit := BCEWithLogits(logit, y)
		p := Sigmoid(logit)
		wantLoss := BCELoss(p, y)
		wantGrad := p - y
		return math.Abs(loss-wantLoss) < 1e-6 && math.Abs(dLogit-wantGrad) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 3, 2, rng)
	// Overwrite with known weights.
	copy(l.W.Value, []float64{1, 0, -1, 2, 2, 2})
	copy(l.B.Value, []float64{0.5, -0.5})
	out := tensor.NewVector(2)
	l.Forward(out, tensor.Vector{1, 2, 3})
	if out[0] != 1-3+0.5 || out[1] != 12-0.5 {
		t.Fatalf("Linear.Forward: %v", out)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("fc", 4, 3, rng)
	x := tensor.NewVector(4)
	fillNormal(rng, x, 1)
	target := tensor.Vector{0.3, -0.2, 0.9}

	loss := func() float64 {
		out := tensor.NewVector(3)
		l.Forward(out, x)
		var s float64
		for i := range out {
			d := out[i] - target[i]
			s += 0.5 * d * d
		}
		return s
	}
	compute := func() {
		l.Params().ZeroGrad()
		out := tensor.NewVector(3)
		l.Forward(out, x)
		dy := tensor.NewVector(3)
		for i := range out {
			dy[i] = out[i] - target[i]
		}
		l.Backward(nil, x, dy)
	}
	if err := GradCheck(l.Params(), loss, compute, 1e-6, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestLinearInputGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear("fc", 3, 2, rng)
	x := tensor.Vector{0.5, -1, 2}
	dy := tensor.Vector{1, -2}
	dx := tensor.NewVector(3)
	l.Backward(dx, x, dy)
	// dx = Wᵀ dy
	want := tensor.NewVector(3)
	l.W.Matrix().MulVecTAdd(want, dy)
	for i := range want {
		if math.Abs(dx[i]-want[i]) > 1e-12 {
			t.Fatalf("input grad: got %v, want %v", dx, want)
		}
	}
}

// cellLossSetup builds a deterministic scalar loss over a short unrolled
// sequence for a cell, exercising backprop through time across 3 steps.
func cellGradCheck(t *testing.T, kind CellKind) {
	t.Helper()
	rng := tensor.NewRNG(42)
	const inSize, hidSize, steps = 3, 4, 3
	cell := NewCell(kind, inSize, hidSize, rng)

	xs := make([]tensor.Vector, steps)
	for i := range xs {
		xs[i] = tensor.NewVector(inSize)
		fillNormal(rng, xs[i], 1)
	}
	// Loss: sum over steps of squared hidden output (first HiddenSize comps).
	loss := func() float64 {
		state := tensor.NewVector(cell.StateSize())
		var s float64
		for i := 0; i < steps; i++ {
			state, _ = cell.Step(state, xs[i])
			for _, h := range state[:cell.HiddenSize()] {
				s += 0.5 * h * h
			}
		}
		return s
	}
	compute := func() {
		cell.Params().ZeroGrad()
		state := tensor.NewVector(cell.StateSize())
		states := make([]tensor.Vector, steps)
		caches := make([]StepCache, steps)
		for i := 0; i < steps; i++ {
			state, caches[i] = cell.Step(state, xs[i])
			states[i] = state
		}
		dState := tensor.NewVector(cell.StateSize())
		for i := steps - 1; i >= 0; i-- {
			for j := 0; j < cell.HiddenSize(); j++ {
				dState[j] += states[i][j]
			}
			dPrev := tensor.NewVector(cell.StateSize())
			cell.Backward(caches[i], dState, nil, dPrev)
			dState = dPrev
		}
	}
	if err := GradCheck(cell.Params(), loss, compute, 1e-6, 2e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGRUGradCheck(t *testing.T)  { cellGradCheck(t, CellGRU) }
func TestLSTMGradCheck(t *testing.T) { cellGradCheck(t, CellLSTM) }
func TestTanhGradCheck(t *testing.T) { cellGradCheck(t, CellTanh) }

// Input gradients must also be exact: perturb an input element and compare.
func cellInputGradCheck(t *testing.T, kind CellKind) {
	t.Helper()
	rng := tensor.NewRNG(7)
	const inSize, hidSize = 3, 4
	cell := NewCell(kind, inSize, hidSize, rng)
	x := tensor.NewVector(inSize)
	fillNormal(rng, x, 1)
	state0 := tensor.NewVector(cell.StateSize())
	fillNormal(rng, state0, 0.5)

	loss := func(xv, sv tensor.Vector) float64 {
		next, _ := cell.Step(sv, xv)
		var s float64
		for _, h := range next {
			s += 0.5 * h * h
		}
		return s
	}
	// Analytic.
	cell.Params().ZeroGrad()
	next, cache := cell.Step(state0, x)
	dNext := next.Clone()
	dx := tensor.NewVector(inSize)
	dPrev := tensor.NewVector(cell.StateSize())
	cell.Backward(cache, dNext, dx, dPrev)

	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss(x, state0)
		x[i] = orig - eps
		lm := loss(x, state0)
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx[i]) > 2e-5*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("%s dx[%d]: analytic %v, numeric %v", kind, i, dx[i], numeric)
		}
	}
	for i := range state0 {
		orig := state0[i]
		state0[i] = orig + eps
		lp := loss(x, state0)
		state0[i] = orig - eps
		lm := loss(x, state0)
		state0[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dPrev[i]) > 2e-5*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("%s dPrev[%d]: analytic %v, numeric %v", kind, i, dPrev[i], numeric)
		}
	}
}

func TestGRUInputGradCheck(t *testing.T)  { cellInputGradCheck(t, CellGRU) }
func TestLSTMInputGradCheck(t *testing.T) { cellInputGradCheck(t, CellLSTM) }
func TestTanhInputGradCheck(t *testing.T) { cellInputGradCheck(t, CellTanh) }

func TestCellShapes(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, kind := range []CellKind{CellGRU, CellLSTM, CellTanh} {
		cell := NewCell(kind, 6, 8, rng)
		if cell.InputSize() != 6 || cell.HiddenSize() != 8 {
			t.Fatalf("%s: wrong sizes", kind)
		}
		wantState := 8
		if kind == CellLSTM {
			wantState = 16
		}
		if cell.StateSize() != wantState {
			t.Fatalf("%s: StateSize = %d, want %d", kind, cell.StateSize(), wantState)
		}
		state := tensor.NewVector(cell.StateSize())
		x := tensor.NewVector(6)
		next, _ := cell.Step(state, x)
		if len(next) != cell.StateSize() {
			t.Fatalf("%s: Step returned state of length %d", kind, len(next))
		}
	}
}

func TestCellStepDoesNotMutateInputs(t *testing.T) {
	rng := tensor.NewRNG(6)
	for _, kind := range []CellKind{CellGRU, CellLSTM, CellTanh} {
		cell := NewCell(kind, 3, 4, rng)
		state := tensor.NewVector(cell.StateSize())
		fillNormal(rng, state, 1)
		x := tensor.NewVector(3)
		fillNormal(rng, x, 1)
		stateCopy := state.Clone()
		xCopy := x.Clone()
		cell.Step(state, x)
		for i := range state {
			if state[i] != stateCopy[i] {
				t.Fatalf("%s: Step mutated state", kind)
			}
		}
		for i := range x {
			if x[i] != xCopy[i] {
				t.Fatalf("%s: Step mutated input", kind)
			}
		}
	}
}

func TestGRUHiddenStaysBounded(t *testing.T) {
	// GRU hidden values are convex combinations of tanh outputs and the
	// previous hidden, so from h₀=0 they must remain in (-1, 1) forever.
	rng := tensor.NewRNG(8)
	cell := NewGRUCell(4, 8, rng)
	state := tensor.NewVector(8)
	x := tensor.NewVector(4)
	for step := 0; step < 200; step++ {
		fillNormal(rng, x, 3)
		state, _ = cell.Step(state, x)
		for _, h := range state {
			if h <= -1 || h >= 1 || math.IsNaN(h) {
				t.Fatalf("GRU hidden escaped (-1,1): %v at step %d", h, step)
			}
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(9)
	d := Dropout{Rate: 0.5}
	x := tensor.NewVector(10000)
	x.Fill(1)
	mask := tensor.NewVector(len(x))
	d.Forward(x, mask, true, rng)

	zeros, kept := 0, 0
	for i := range x {
		switch x[i] {
		case 0:
			zeros++
		case 2: // 1/(1-0.5) scaling
			kept++
		default:
			t.Fatalf("dropout produced unexpected value %v", x[i])
		}
	}
	if zeros+kept != len(x) {
		t.Fatalf("zeros+kept != n")
	}
	frac := float64(zeros) / float64(len(x))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("dropout rate: got %v, want ≈0.5", frac)
	}

	// Eval mode: identity.
	x2 := tensor.NewVector(100)
	x2.Fill(3)
	mask2 := tensor.NewVector(100)
	d.Forward(x2, mask2, false, rng)
	for i := range x2 {
		if x2[i] != 3 || mask2[i] != 1 {
			t.Fatalf("eval-mode dropout must be identity")
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	rng := tensor.NewRNG(10)
	d := Dropout{Rate: 0.2}
	const n = 200000
	x := tensor.NewVector(n)
	x.Fill(1)
	mask := tensor.NewVector(n)
	d.Forward(x, mask, true, rng)
	var sum float64
	for _, v := range x {
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Fatalf("inverted dropout must preserve expectation: mean %v", mean)
	}
}

func TestParamsHelpers(t *testing.T) {
	rng := tensor.NewRNG(11)
	l1 := NewLinear("a", 2, 3, rng)
	l2 := NewLinear("b", 3, 1, rng)
	ps := append(l1.Params(), l2.Params()...)

	for _, p := range ps {
		p.Grad.Fill(2)
	}
	norm := ps.GradNorm()
	const scalars = 2*3 + 3 + 3*1 + 1
	want := 2 * math.Sqrt(scalars)
	if math.Abs(norm-want) > 1e-9 {
		t.Fatalf("GradNorm: got %v, want %v", norm, want)
	}

	pre := ps.ClipGradNorm(1)
	if math.Abs(pre-want) > 1e-9 {
		t.Fatalf("ClipGradNorm must return pre-clip norm")
	}
	if after := ps.GradNorm(); math.Abs(after-1) > 1e-9 {
		t.Fatalf("post-clip norm: got %v, want 1", after)
	}

	ps.ZeroGrad()
	if ps.GradNorm() != 0 {
		t.Fatalf("ZeroGrad failed")
	}
}

func TestParamsCopyValuesAndAddGrads(t *testing.T) {
	rng := tensor.NewRNG(13)
	a := NewGRUCell(3, 4, rng)
	b := NewGRUCell(3, 4, rng)
	a.Params().CopyValuesTo(b.Params())
	fa, fb := flatten(a.Params()), flatten(b.Params())
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("CopyValuesTo mismatch at %d", i)
		}
	}

	for _, p := range a.Params() {
		p.Grad.Fill(1)
	}
	for _, p := range b.Params() {
		p.Grad.Fill(2)
	}
	a.Params().AddGrads(b.Params())
	for _, p := range a.Params() {
		for _, g := range p.Grad {
			if g != 3 {
				t.Fatalf("AddGrads: got %v", g)
			}
		}
	}
	a.Params().ScaleGrads(0.5)
	for _, p := range a.Params() {
		for _, g := range p.Grad {
			if g != 1.5 {
				t.Fatalf("ScaleGrads: got %v", g)
			}
		}
	}
}

func TestMatrixParamPanicsOnVector(t *testing.T) {
	p := NewVectorParam("v", 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("Matrix() on vector param must panic")
		}
	}()
	p.Matrix()
}
