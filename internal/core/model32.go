package core

import (
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Float32 fast-tier surface of the Model: the same RNNupdate operations as
// model.go, threaded through the nn package's f32 fused kernels. The f64
// methods stay the reference tier (bit-identical to training); these are
// the serving fast path, with bounded-error agreement across tiers and
// bit-exact agreement among all f32 paths (scalar, batched, any platform).
//
// Only RNNupdate has an f32 tier: it is the wave-partitioned finaliser's
// inner loop, executed once per session per user at scale. RNNpredict
// stays f64 — it runs once per arriving request, is dominated by the MLP,
// and its hidden input widens exactly from the stored f32 wire state.

// SupportsF32 reports whether the recurrent cell implements the f32
// inference tier (scalar and batched). The GRU — the paper's selected cell
// — does; stacked, LSTM, and tanh cells fall back to the f64 tier.
func (m *Model) SupportsF32() bool {
	if _, ok := m.cell.(nn.InferenceCell32); !ok {
		return false
	}
	_, ok := m.cell.(nn.BatchInferenceCell32)
	return ok
}

// cell32 returns the cell's f32 interface or panics: callers gate on
// SupportsF32 before selecting the tier.
func (m *Model) cell32() nn.InferenceCell32 {
	ic, ok := m.cell.(nn.InferenceCell32)
	if !ok {
		panic("core: f32 tier on a cell without InferenceCell32 (gate on SupportsF32)")
	}
	return ic
}

// UpdateDim32 returns the padded RNNupdate input width of the f32 tier:
// UpdateDim rounded up to the packed-kernel reduction width, with zero
// tail columns.
func (m *Model) UpdateDim32() int { return m.cell32().InputSize32() }

// BuildUpdateInput32 is BuildUpdateInput for the f32 tier: the same
// [f_i; A_i; T(Δt_i)] layout written into a padded float32 vector. Every
// feature is a 0/1 one-hot, so the vector equals the f64 one exactly. dst
// must have length UpdateDim32 (nil allocates).
func (m *Model) BuildUpdateInput32(ts int64, cat []int, access bool, deltaT int64, dst tensor.Vector32) tensor.Vector32 {
	if dst == nil {
		dst = tensor.NewVector32(m.UpdateDim32())
	} else {
		dst.Zero()
	}
	ctxDim := 0
	if !m.Cfg.Minimal {
		ctxDim = features.ContextDim(m.Schema)
		features.ContextVector32(m.Schema, ts, cat, dst[:ctxDim])
	}
	if access {
		dst[ctxDim] = 1
	}
	dst[ctxDim+1+features.TimeBucket(deltaT)] = 1
	return dst
}

// UpdateScratchSize32 returns the scratch length UpdateStateInto32 needs.
func (m *Model) UpdateScratchSize32() int { return m.cell32().ScratchSize32() }

// UpdateStateInto32 is the f32 UpdateStateInto: it advances state by the
// padded update input, writing into dst (length StateSize) using scratch
// (length UpdateScratchSize32). Bit-identical to every other f32 path over
// the same inputs; bounded-error against the f64 tier. dst must not alias
// state or updateInput.
func (m *Model) UpdateStateInto32(dst, state, updateInput, scratch tensor.Vector32) {
	m.cell32().StepInfer32(dst, state, updateInput, scratch)
}

// BatchUpdateScratchSize32 returns the arena demand (float32s) of one
// UpdateStatesInto32 call at batch size B.
func (m *Model) BatchUpdateScratchSize32(B int) int {
	bc, ok := m.cell.(nn.BatchInferenceCell32)
	if !ok {
		panic("core: f32 tier on a cell without BatchInferenceCell32 (gate on SupportsF32)")
	}
	return bc.BatchScratchSize32(B)
}

// UpdateStatesInto32 is the batched f32 RNNupdate: it advances the B packed
// states by the padded update inputs in the rows of xs (B × UpdateDim32),
// writing row-aligned results into dst. Row b of dst is bit-identical to
// UpdateStateInto32 on row b — the f32 finaliser's replay equivalence
// depends on that exactly as the f64 tier's does on UpdateStateInto.
func (m *Model) UpdateStatesInto32(dst, states, xs *tensor.Matrix32, arena *tensor.Arena32) {
	bc, ok := m.cell.(nn.BatchInferenceCell32)
	if !ok {
		panic("core: f32 tier on a cell without BatchInferenceCell32 (gate on SupportsF32)")
	}
	bc.StepInferBatch32(dst, states, xs, arena)
}
