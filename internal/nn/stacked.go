package nn

import "repro/internal/tensor"

// StackedCell composes recurrent cells vertically: the input feeds the
// bottom layer and each layer's hidden output feeds the next. §6.2 of the
// paper evaluates stacking GRU units and reports no meaningful improvement
// over a single unit (consistent with Beutel et al.); the stacked-cell
// ablation reproduces that comparison.
//
// The externally visible hidden vector is the *top* layer's hidden output;
// the full state is the concatenation of all layers' states.
type StackedCell struct {
	layers  []Cell
	offsets []int // state offset of each layer within the packed state
	total   int
}

// NewStackedCell stacks `layers` cells of the given kind. The bottom layer
// consumes inputSize; every other layer consumes the hidden output of the
// layer below.
func NewStackedCell(kind CellKind, inputSize, hiddenSize, layers int, rng *tensor.RNG) *StackedCell {
	if layers < 1 {
		panic("nn: NewStackedCell: need at least one layer")
	}
	s := &StackedCell{}
	in := inputSize
	for i := 0; i < layers; i++ {
		c := NewCell(kind, in, hiddenSize, rng)
		s.offsets = append(s.offsets, s.total)
		s.total += c.StateSize()
		s.layers = append(s.layers, c)
		in = hiddenSize
	}
	return s
}

// InputSize returns the bottom layer's input size.
func (s *StackedCell) InputSize() int { return s.layers[0].InputSize() }

// HiddenSize returns the top layer's hidden size.
func (s *StackedCell) HiddenSize() int { return s.layers[len(s.layers)-1].HiddenSize() }

// StateSize returns the packed state length across layers.
func (s *StackedCell) StateSize() int { return s.total }

// Params returns all layers' parameters.
func (s *StackedCell) Params() Params {
	var ps Params
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

type stackedCache struct {
	caches []StepCache
	// inputs[i] is the input fed to layer i (layer 0's input is the
	// external x, cached by the layer itself; upper layers consume lower
	// hidden outputs, needed to route gradients).
}

// layerState slices the packed state for layer i. The top layer is placed
// last so the visible hidden vector is the trailing HiddenSize components…
// — but Cell's contract exposes the *first* HiddenSize components. To
// honour it, the top layer's state is packed first.
func (s *StackedCell) layerState(state tensor.Vector, i int) tensor.Vector {
	// Layer order in the packed state: top layer first, then downwards.
	// packedIndex(layer i) = len-1-i.
	li := len(s.layers) - 1 - i
	start := s.offsets[li]
	return state[start : start+s.layers[i].StateSize()]
}

// Step advances all layers by one event.
func (s *StackedCell) Step(state, x tensor.Vector) (tensor.Vector, StepCache) {
	next := tensor.NewVector(s.total)
	cache := &stackedCache{caches: make([]StepCache, len(s.layers))}
	in := x
	for i, l := range s.layers {
		ns, c := l.Step(s.layerState(state, i), in)
		copy(s.layerState(next, i), ns)
		cache.caches[i] = c
		in = ns[:l.HiddenSize()]
	}
	return next, cache
}

// Backward propagates dNext through the stack (top layer first, feeding
// each layer's input gradient into the layer below's hidden gradient).
func (s *StackedCell) Backward(cache StepCache, dNext, dx, dPrev tensor.Vector) {
	cc := cache.(*stackedCache)
	n := len(s.layers)
	// Per-layer dNext views over a scratch copy so we can accumulate
	// inter-layer gradients without mutating the caller's dNext.
	scratch := dNext.Clone()
	var dPrevLayer []tensor.Vector
	if dPrev != nil {
		dPrevLayer = make([]tensor.Vector, n)
		for i := 0; i < n; i++ {
			dPrevLayer[i] = s.layerState(dPrev, i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		l := s.layers[i]
		dNextI := s.layerState(scratch, i)
		var dxI tensor.Vector
		if i > 0 {
			dxI = tensor.NewVector(l.InputSize())
		} else if dx != nil {
			dxI = dx
		}
		var dPrevI tensor.Vector
		if dPrev != nil {
			dPrevI = dPrevLayer[i]
		}
		l.Backward(cc.caches[i], dNextI, dxI, dPrevI)
		if i > 0 {
			// The layer's input was the hidden output of layer i−1 at this
			// same timestep: fold its gradient into that layer's dNext.
			below := s.layerState(scratch, i-1)
			below[:s.layers[i-1].HiddenSize()].Add(dxI)
		}
	}
}
