package nn

import (
	"testing"

	"repro/internal/tensor"
)

func TestStackedCellShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	s := NewStackedCell(CellGRU, 5, 4, 2, rng)
	if s.InputSize() != 5 || s.HiddenSize() != 4 {
		t.Fatalf("sizes: in=%d hidden=%d", s.InputSize(), s.HiddenSize())
	}
	if s.StateSize() != 8 {
		t.Fatalf("StateSize: %d", s.StateSize())
	}
	// LSTM stack: state = 2 layers × 2·hidden.
	ls := NewStackedCell(CellLSTM, 5, 4, 2, rng)
	if ls.StateSize() != 16 {
		t.Fatalf("LSTM stack StateSize: %d", ls.StateSize())
	}
	if n := len(s.Params()); n != 8 { // 2 layers × 4 params per GRU
		t.Fatalf("param count: %d", n)
	}
}

func TestStackedCellPanicsOnZeroLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewStackedCell(CellGRU, 3, 4, 0, tensor.NewRNG(1))
}

func TestStackedSingleLayerMatchesPlainCell(t *testing.T) {
	// A 1-layer stack must behave exactly like the underlying cell when
	// given the same weights.
	rng1 := tensor.NewRNG(7)
	plain := NewGRUCell(3, 4, rng1)
	rng2 := tensor.NewRNG(7)
	stack := NewStackedCell(CellGRU, 3, 4, 1, rng2)

	x := tensor.NewVector(3)
	fillNormal(tensor.NewRNG(9), x, 1)
	state := tensor.NewVector(4)

	hp, _ := plain.Step(state, x)
	hs, _ := stack.Step(state, x)
	for i := range hp {
		if hp[i] != hs[i] {
			t.Fatalf("1-layer stack diverges from plain cell: %v vs %v", hp, hs)
		}
	}
}

// TestStackedVisibleHiddenIsTopLayer verifies the Cell contract: the first
// HiddenSize components of the state are the top layer's hidden output.
func TestStackedVisibleHiddenIsTopLayer(t *testing.T) {
	rng := tensor.NewRNG(11)
	s := NewStackedCell(CellGRU, 3, 4, 2, rng)
	x := tensor.NewVector(3)
	fillNormal(rng, x, 1)
	state := tensor.NewVector(s.StateSize())
	next, _ := s.Step(state, x)

	// Manually: bottom layer from zero state on x; top layer from zero
	// state on bottom's hidden.
	bottom := s.layers[0]
	top := s.layers[1]
	hBot, _ := bottom.Step(tensor.NewVector(4), x)
	hTop, _ := top.Step(tensor.NewVector(4), hBot[:4])
	for i := 0; i < 4; i++ {
		if next[i] != hTop[i] {
			t.Fatalf("visible hidden must be the top layer's output")
		}
	}
}

func TestStackedGradCheck(t *testing.T) {
	rng := tensor.NewRNG(42)
	const inSize, hidSize, steps = 3, 3, 3
	cell := NewStackedCell(CellGRU, inSize, hidSize, 2, rng)

	xs := make([]tensor.Vector, steps)
	for i := range xs {
		xs[i] = tensor.NewVector(inSize)
		fillNormal(rng, xs[i], 1)
	}
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

func TestStackedInputGradCheck(t *testing.T) {
	rng := tensor.NewRNG(13)
	cell := NewStackedCell(CellGRU, 3, 3, 2, rng)
	x := tensor.NewVector(3)
	fillNormal(rng, x, 1)
	state0 := tensor.NewVector(cell.StateSize())
	fillNormal(rng, state0, 0.5)

	loss := func() float64 {
		next, _ := cell.Step(state0, x)
		var s float64
		for _, h := range next {
			s += 0.5 * h * h
		}
		return s
	}
	cell.Params().ZeroGrad()
	next, cache := cell.Step(state0, x)
	dNext := next.Clone()
	dx := tensor.NewVector(3)
	dPrev := tensor.NewVector(cell.StateSize())
	cell.Backward(cache, dNext, dx, dPrev)

	const eps = 1e-6
	base := loss()
	_ = base
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := numeric - dx[i]; diff > 2e-5 || diff < -2e-5 {
			t.Fatalf("dx[%d]: analytic %v, numeric %v", i, dx[i], numeric)
		}
	}
	for i := range state0 {
		orig := state0[i]
		state0[i] = orig + eps
		lp := loss()
		state0[i] = orig - eps
		lm := loss()
		state0[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := numeric - dPrev[i]; diff > 2e-5 || diff < -2e-5 {
			t.Fatalf("dPrev[%d]: analytic %v, numeric %v", i, dPrev[i], numeric)
		}
	}
}
