// Package core implements the paper's primary contribution: the recurrent
// predictive-precompute model of §6 and its training procedure of §7.
//
// The model is split exactly as the paper requires (§6.1 "Functions for
// hidden updates and predictions"):
//
//   - RNNupdate — a recurrent cell (GRU by default) that folds one
//     completed session [f_i; A_i; T(Δt_i)] into the user's hidden state
//     (eq. 1). In production this runs in the stream processor after the
//     session window closes.
//   - RNNpredict — a feed-forward head that turns (h_k, current context)
//     into an access probability (eq. 2), where h_k is the latest hidden
//     state whose session ended before the update-delay horizon t_i − δ.
//     In production this runs at session startup in the serving tier.
//
// The prediction head uses the latent-cross formulation of §6.2,
// h' = h_k ∘ (1 + L·f), followed by a single 128-unit ReLU MLP with 20%
// dropout and a sigmoid output — a line-for-line port of the paper's
// Figure 3 PyTorch reference code.
package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config holds the model hyperparameters of §6.2.
type Config struct {
	// Cell selects the recurrent unit (§6.2 evaluates tanh/GRU/LSTM and
	// selects GRU).
	Cell nn.CellKind
	// HiddenDim is the hidden-state dimensionality (128 in the paper;
	// §9 notes it is the lever for trading quality against per-user
	// storage).
	HiddenDim int
	// MLPHidden is the prediction MLP width (128 in the paper).
	MLPHidden int
	// DropoutRate is applied inside the MLP during training (0.2).
	DropoutRate float64
	// LatentCross toggles the h ∘ (1 + L·f) term (§6.2; ablation A2).
	LatentCross bool
	// Layers stacks multiple recurrent units vertically (§6.2 reports no
	// meaningful gain from stacking; 0/1 = single unit).
	Layers int
	// Timeshift marks the eq. 3 variant: predictions receive only
	// T(start_d − t_k), no session context.
	Timeshift bool
	// Minimal builds the §10.1 "reusable model": the update input is only
	// [A_i; T(Δt_i)] and the prediction input only [T(t − t_k)] — no
	// context features at all, so one trained model applies to any access
	// log regardless of schema.
	Minimal bool
	Seed    uint64
}

// DefaultConfig returns the paper's settings with a hidden size scaled for
// this repository's single-core experiment defaults (the paper's 128 is
// supported and swept in the hidden-dim ablation).
func DefaultConfig() Config {
	return Config{
		Cell:        nn.CellGRU,
		HiddenDim:   64,
		MLPHidden:   128,
		DropoutRate: 0.2,
		LatentCross: true,
		Seed:        1,
	}
}

// Model is the RNNupdate/RNNpredict pair.
type Model struct {
	Schema *dataset.Schema
	Cfg    Config

	cell nn.Cell
	// l is the latent-cross projection L (predict-input → hidden).
	l *nn.Linear
	// w1, w2 are the MLP layers.
	w1, w2  *nn.Linear
	dropout nn.Dropout

	updateDim  int // cell input: context + access flag + T(Δt)
	predictDim int // predict input: context + T(t−t_k), or T only for timeshift
}

// New constructs a model for the given dataset schema.
func New(schema *dataset.Schema, cfg Config) *Model {
	if cfg.HiddenDim <= 0 || cfg.MLPHidden <= 0 {
		panic(fmt.Sprintf("core: invalid dims %d/%d", cfg.HiddenDim, cfg.MLPHidden))
	}
	ctxDim := features.ContextDim(schema)
	m := &Model{
		Schema:     schema,
		Cfg:        cfg,
		updateDim:  ctxDim + 1 + features.NumTimeBuckets,
		predictDim: ctxDim + features.NumTimeBuckets,
		dropout:    nn.Dropout{Rate: cfg.DropoutRate},
	}
	if cfg.Minimal {
		m.updateDim = 1 + features.NumTimeBuckets
		m.predictDim = features.NumTimeBuckets
	}
	if cfg.Timeshift {
		m.predictDim = features.NumTimeBuckets
	}
	rng := tensor.NewRNG(cfg.Seed)
	if cfg.Layers > 1 {
		m.cell = nn.NewStackedCell(cfg.Cell, m.updateDim, cfg.HiddenDim, cfg.Layers, rng)
	} else {
		m.cell = nn.NewCell(cfg.Cell, m.updateDim, cfg.HiddenDim, rng)
	}
	m.l = nn.NewLinear("latentcross.L", m.predictDim, cfg.HiddenDim, rng)
	m.w1 = nn.NewLinear("mlp.W1", cfg.HiddenDim+m.predictDim, cfg.MLPHidden, rng)
	m.w2 = nn.NewLinear("mlp.W2", cfg.MLPHidden, 1, rng)
	return m
}

// Params returns all learnable parameters.
func (m *Model) Params() nn.Params {
	ps := m.cell.Params()
	ps = append(ps, m.l.Params()...)
	ps = append(ps, m.w1.Params()...)
	ps = append(ps, m.w2.Params()...)
	return ps
}

// UpdateDim returns the RNNupdate input width.
func (m *Model) UpdateDim() int { return m.updateDim }

// PredictDim returns the RNNpredict input width.
func (m *Model) PredictDim() int { return m.predictDim }

// StateSize returns the full recurrent state length (HiddenDim for GRU).
func (m *Model) StateSize() int { return m.cell.StateSize() }

// HiddenDim returns the externally visible hidden-vector length — the
// per-user value the serving tier stores (512 bytes at d=128, §9).
func (m *Model) HiddenDim() int { return m.cell.HiddenSize() }

// InitialState returns h_0, the all-zero state every user starts from
// (§6.1).
func (m *Model) InitialState() tensor.Vector {
	return tensor.NewVector(m.cell.StateSize())
}

// CopyCellTo copies this model's recurrent-cell parameters into dst, which
// must share the cell architecture. Together with TrainConfig.FreezeCell
// this implements the §9 retraining path: the new model keeps the exact GRU
// that produced the hidden states already in the serving store.
func (m *Model) CopyCellTo(dst *Model) {
	m.cell.Params().CopyValuesTo(dst.cell.Params())
}

// gradClone returns a worker replica sharing this model's parameter
// *values* but owning fresh gradient buffers, so per-user workers can
// backpropagate concurrently and the trainer can merge gradients
// afterwards (§7.1 custom parallelism).
func (m *Model) gradClone() *Model {
	clone := New(m.Schema, m.Cfg)
	src, dst := m.Params(), clone.Params()
	for i := range src {
		dst[i].Value = src[i].Value // alias values, keep own Grad
	}
	return clone
}

// BuildUpdateInput assembles the RNNupdate input [f_i; A_i; T(Δt_i)] for a
// completed session. dst must have length UpdateDim (nil allocates).
func (m *Model) BuildUpdateInput(ts int64, cat []int, access bool, deltaT int64, dst tensor.Vector) tensor.Vector {
	if dst == nil {
		dst = tensor.NewVector(m.updateDim)
	} else {
		dst.Zero()
	}
	ctxDim := 0
	if !m.Cfg.Minimal {
		ctxDim = features.ContextDim(m.Schema)
		features.ContextVector(m.Schema, ts, cat, dst[:ctxDim])
	}
	if access {
		dst[ctxDim] = 1
	}
	dst[ctxDim+1+features.TimeBucket(deltaT)] = 1
	return dst
}

// BuildPredictInput assembles the RNNpredict input [f_i; T(t_i − t_k)]
// (eq. 2). dst must have length PredictDim (nil allocates).
func (m *Model) BuildPredictInput(ts int64, cat []int, sinceK int64, dst tensor.Vector) tensor.Vector {
	if m.Cfg.Timeshift {
		panic("core: BuildPredictInput on a timeshift model; use BuildTimeshiftPredictInput")
	}
	if dst == nil {
		dst = tensor.NewVector(m.predictDim)
	} else {
		dst.Zero()
	}
	ctxDim := 0
	if !m.Cfg.Minimal {
		ctxDim = features.ContextDim(m.Schema)
		features.ContextVector(m.Schema, ts, cat, dst[:ctxDim])
	}
	dst[ctxDim+features.TimeBucket(sinceK)] = 1
	return dst
}

// BuildTimeshiftPredictInput assembles the eq. 3 input [T(start_d − t_k)].
func (m *Model) BuildTimeshiftPredictInput(sinceK int64, dst tensor.Vector) tensor.Vector {
	if !m.Cfg.Timeshift {
		panic("core: BuildTimeshiftPredictInput on a session model")
	}
	if dst == nil {
		dst = tensor.NewVector(m.predictDim)
	} else {
		dst.Zero()
	}
	dst[features.TimeBucket(sinceK)] = 1
	return dst
}

// UpdateState runs RNNupdate: folds one completed session into the state,
// returning the new state (the inputs are not mutated). This is the
// operation the production stream processor executes at t_i + δ.
func (m *Model) UpdateState(state, updateInput tensor.Vector) tensor.Vector {
	next, _ := m.cell.Step(state, updateInput)
	return next
}

// UpdateScratchSize returns the scratch length UpdateStateInto needs (0
// when the cell has no allocation-free inference step).
func (m *Model) UpdateScratchSize() int {
	if ic, ok := m.cell.(nn.InferenceCell); ok {
		return ic.ScratchSize()
	}
	return 0
}

// UpdateStateInto is the allocation-lean UpdateState for the serving hot
// path: it writes the next state into dst (length StateSize) using scratch
// (length UpdateScratchSize), producing bit-identical states to
// UpdateState. Cells without an inference step fall back to Step, losing
// only the allocation savings. dst must not alias state or updateInput.
func (m *Model) UpdateStateInto(dst, state, updateInput, scratch tensor.Vector) {
	if ic, ok := m.cell.(nn.InferenceCell); ok {
		ic.StepInfer(dst, state, updateInput, scratch)
		return
	}
	next, _ := m.cell.Step(state, updateInput)
	copy(dst, next)
}

// BatchUpdateScratchSize returns the arena demand (float64s) of one
// UpdateStatesInto call at batch size B, so callers can presize their
// arenas and keep the batched hot path allocation-free from the first
// call.
func (m *Model) BatchUpdateScratchSize(B int) int {
	if bc, ok := m.cell.(nn.BatchInferenceCell); ok {
		return bc.BatchScratchSize(B)
	}
	return m.UpdateScratchSize()
}

// UpdateStatesInto is the batched UpdateStateInto: it advances the B
// packed session states in the rows of states by the update inputs in the
// rows of xs, writing row-aligned results into dst (all matrices B ×
// StateSize / UpdateDim). Intermediates come from arena; the caller resets
// it between batches. Row b of dst is bit-identical to UpdateStateInto on
// row b — the serving tier's batched finaliser depends on that to keep
// stored states byte-identical to the sequential path.
func (m *Model) UpdateStatesInto(dst, states, xs *tensor.Matrix, arena *tensor.Arena) {
	if bc, ok := m.cell.(nn.BatchInferenceCell); ok {
		bc.StepInferBatch(dst, states, xs, arena)
		return
	}
	scratch := arena.Vector(m.UpdateScratchSize())
	for b := 0; b < xs.Rows; b++ {
		m.UpdateStateInto(dst.Row(b), states.Row(b), xs.Row(b), scratch)
	}
}

// predCache holds the intermediates of one training-time prediction for
// backprop.
type predCache struct {
	k       int // hidden-state index used (0 = initial state)
	f       tensor.Vector
	lf      tensor.Vector // L·f (nil when latent cross disabled)
	hPrime  tensor.Vector // h_k ∘ (1+lf), or h_k when disabled
	mlpIn   tensor.Vector
	r       tensor.Vector // post-ReLU activations
	mask    tensor.Vector // dropout mask
	dLogit  float64       // set during loss computation
	predIdx int           // position in the emitted score slice
}

// predictForward runs RNNpredict given the visible hidden vector h (length
// HiddenDim) and predict-input f. In training mode it records the
// intermediates into cache and uses dropout driven by rng.
func (m *Model) predictForward(h, f tensor.Vector, train bool, rng *tensor.RNG, cache *predCache) float64 {
	hp := h.Clone()
	var lf tensor.Vector
	if m.Cfg.LatentCross {
		lf = tensor.NewVector(m.Cfg.HiddenDim)
		m.l.Forward(lf, f)
		for i := range hp {
			hp[i] *= 1 + lf[i]
		}
	}
	mlpIn := tensor.Concat(hp, f)
	z := tensor.NewVector(m.Cfg.MLPHidden)
	m.w1.Forward(z, mlpIn)
	mask := tensor.NewVector(m.Cfg.MLPHidden)
	m.dropout.Forward(z, mask, train, rng)
	nn.ReLUVec(z, z)
	out := tensor.NewVector(1)
	m.w2.Forward(out, z)
	logit := out[0]
	if cache != nil {
		cache.f = f
		cache.lf = lf
		cache.hPrime = hp
		cache.mlpIn = mlpIn
		cache.r = z
		cache.mask = mask
	}
	return logit
}

// Predict runs RNNpredict in inference mode and returns P(access).
func (m *Model) Predict(h, f tensor.Vector) float64 {
	return nn.Sigmoid(m.predictForward(h, f, false, nil, nil))
}

// PredictScratch is the working memory of one PredictInto call, sized for
// the model that made it. Not safe for concurrent use; pool one per
// goroutine.
type PredictScratch struct {
	lf    tensor.Vector // L·f
	mlpIn tensor.Vector // [h ∘ (1+lf); f]
	z     tensor.Vector // MLP hidden activations
	out   tensor.Vector // the logit
}

// NewPredictScratch allocates the scratch PredictInto needs.
func (m *Model) NewPredictScratch() *PredictScratch {
	return &PredictScratch{
		lf:    tensor.NewVector(m.Cfg.HiddenDim),
		mlpIn: tensor.NewVector(m.Cfg.HiddenDim + m.predictDim),
		z:     tensor.NewVector(m.Cfg.MLPHidden),
		out:   tensor.NewVector(1),
	}
}

// PredictInto is Predict without allocations: the same operations in the
// same order as the inference branch of predictForward, written into s —
// h′ is built in place at the head of the MLP input, and the all-ones
// dropout mask, which inference never reads, is skipped — so the result is
// bit-identical to Predict.
func (m *Model) PredictInto(h, f tensor.Vector, s *PredictScratch) float64 {
	hp := s.mlpIn[:len(h)]
	copy(hp, h)
	if m.Cfg.LatentCross {
		m.l.Forward(s.lf, f)
		for i := range hp {
			hp[i] *= 1 + s.lf[i]
		}
	}
	copy(s.mlpIn[len(h):], f)
	m.w1.Forward(s.z, s.mlpIn)
	nn.ReLUVec(s.z, s.z)
	m.w2.Forward(s.out, s.z)
	return nn.Sigmoid(s.out[0])
}

// predictBackward propagates dLogit through RNNpredict, accumulating
// parameter gradients and returning the gradient w.r.t. the visible hidden
// vector h_k.
func (m *Model) predictBackward(c *predCache, hK tensor.Vector) tensor.Vector {
	// Output layer.
	dOut := tensor.Vector{c.dLogit}
	dr := tensor.NewVector(m.Cfg.MLPHidden)
	m.w2.Backward(dr, c.r, dOut)
	// ReLU (using output) then dropout mask.
	dz := tensor.NewVector(m.Cfg.MLPHidden)
	nn.ReLUBackward(dz, c.r, dr)
	for i := range dz {
		dz[i] *= c.mask[i]
	}
	// W1: accumulate weight gradients, but backpropagate only into the
	// hidden slice of the MLP input — the context part f is an input, so
	// its gradient is never consumed (saves a dense Cols-wide transpose
	// product per prediction).
	m.w1.W.GradMatrix().RankOneAdd(1, dz, c.mlpIn)
	m.w1.B.Grad.Add(dz)
	hid := m.Cfg.HiddenDim
	dhPrime := tensor.NewVector(hid)
	w1m := m.w1.W.Matrix()
	for i, dzi := range dz {
		if dzi == 0 {
			continue
		}
		row := w1m.Data[i*w1m.Cols : i*w1m.Cols+hid]
		for j, w := range row {
			dhPrime[j] += dzi * w
		}
	}
	// Latent cross.
	dh := tensor.NewVector(m.Cfg.HiddenDim)
	if m.Cfg.LatentCross {
		dlf := tensor.NewVector(m.Cfg.HiddenDim)
		for i := range dh {
			dh[i] = dhPrime[i] * (1 + c.lf[i])
			dlf[i] = dhPrime[i] * hK[i]
		}
		m.l.Backward(nil, c.f, dlf)
	} else {
		copy(dh, dhPrime)
	}
	return dh
}
