package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestGRUStepInferBatchMatchesStepInfer requires the batched GEMM path to
// produce bit-identical states to the per-session scratch path, across
// chained steps (realistic state magnitudes), sparse one-hot-ish inputs
// (the update-input shape), and batch sizes around the 4×4 tile edges.
func TestGRUStepInferBatchMatchesStepInfer(t *testing.T) {
	rng := tensor.NewRNG(42)
	c := NewGRUCell(17, 24, rng)
	arena := tensor.NewArena(0)
	scratch := tensor.NewVector(c.ScratchSize())
	want := tensor.NewVector(c.StateSize())

	for _, B := range []int{1, 2, 4, 5, 8, 13} {
		states := tensor.NewMatrix(B, c.StateSize())
		xs := tensor.NewMatrix(B, c.InputSize())
		dst := tensor.NewMatrix(B, c.StateSize())
		for step := 0; step < 10; step++ {
			clear(xs.Data)
			for b := 0; b < B; b++ {
				row := xs.Row(b)
				if step%2 == 0 { // sparse one-hot-ish input
					row[rng.Intn(len(row))] = 1
					row[rng.Intn(len(row))] = 1
				} else { // dense input
					for i := range row {
						row[i] = rng.NormFloat64()
					}
				}
			}
			arena.Reset()
			c.StepInferBatch(dst, states, xs, arena)
			for b := 0; b < B; b++ {
				c.StepInfer(want, states.Row(b), xs.Row(b), scratch)
				for i, w := range want {
					if got := dst.Row(b)[i]; got != w {
						t.Fatalf("B=%d step %d row %d dim %d: batch %v vs scalar %v", B, step, b, i, got, w)
					}
				}
			}
			// Chain: next step starts from the batched states.
			copy(states.Data, dst.Data)
		}
	}
}

// TestStackedStepInferBatchMatchesStep checks the stacked batched path
// (GRU layers batched, state gather/scatter) against the sequential Step
// path the stacked cell uses today.
func TestStackedStepInferBatchMatchesStep(t *testing.T) {
	for _, kind := range []CellKind{CellGRU, CellLSTM} {
		rng := tensor.NewRNG(7)
		s := NewStackedCell(kind, 11, 9, 2, rng)
		arena := tensor.NewArena(0)
		const B = 6
		states := tensor.NewMatrix(B, s.StateSize())
		xs := tensor.NewMatrix(B, s.InputSize())
		dst := tensor.NewMatrix(B, s.StateSize())
		for step := 0; step < 6; step++ {
			for b := 0; b < B; b++ {
				row := xs.Row(b)
				for i := range row {
					row[i] = rng.NormFloat64()
				}
			}
			arena.Reset()
			s.StepInferBatch(dst, states, xs, arena)
			for b := 0; b < B; b++ {
				want, _ := s.Step(states.Row(b), xs.Row(b))
				for i, w := range want {
					if got := dst.Row(b)[i]; got != w {
						t.Fatalf("%s step %d row %d dim %d: batch %v vs Step %v", kind, step, b, i, got, w)
					}
				}
			}
			copy(states.Data, dst.Data)
		}
	}
}

// TestBatchInferenceCellImplementations documents which cells batch.
func TestBatchInferenceCellImplementations(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, ok := Cell(NewGRUCell(4, 4, rng)).(BatchInferenceCell); !ok {
		t.Fatalf("GRU must implement BatchInferenceCell")
	}
	if _, ok := Cell(NewStackedCell(CellGRU, 4, 4, 2, rng)).(BatchInferenceCell); !ok {
		t.Fatalf("stacked cell must implement BatchInferenceCell")
	}
}

// TestGRUStepInferBatchSteadyStateAllocs pins the zero-alloc claim: after
// the first batch at a given shape, the batched step allocates nothing.
func TestGRUStepInferBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so MulMatT's pack strip reallocates")
	}
	rng := tensor.NewRNG(3)
	c := NewGRUCell(30, 32, rng)
	const B = 16
	arena := tensor.NewArena(0)
	states := tensor.NewMatrix(B, c.StateSize())
	xs := tensor.NewMatrix(B, c.InputSize())
	dst := tensor.NewMatrix(B, c.StateSize())
	for b := 0; b < B; b++ {
		xs.Row(b)[b%30] = 1
	}
	arena.Reset()
	c.StepInferBatch(dst, states, xs, arena) // warm the arena
	if allocs := testing.AllocsPerRun(20, func() {
		arena.Reset()
		c.StepInferBatch(dst, states, xs, arena)
	}); allocs != 0 {
		t.Fatalf("StepInferBatch steady state: %v allocs/op, want 0", allocs)
	}
}
