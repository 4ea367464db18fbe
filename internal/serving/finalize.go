package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Session finalisation — the one place a session's events become a stored
// hidden state: read the user's state, fold the session in with RNNupdate,
// write the new state back (§9). Every consumer — the inline sequential
// processor, the lane pool behind the online server and the parallel
// replay processor — goes through BatchFinalizer.Finalize.
//
// Due sessions are advanced in groups through the batched cell (two GEMMs
// per wave, weights read once per wave) instead of two matrix-vector
// products per session. Correctness hinges on per-user update order, the
// only order RNNupdate depends on: a group may hold several sessions of one
// user, so it is partitioned into "waves" by per-user step depth — a user's
// k-th session in the group lands in wave k — and the waves run
// sequentially. Within a wave every row belongs to a distinct user, so the
// wave's reads all precede its writes safely. A one-row wave takes the
// cell's scalar step, a wider one the batched step; the cell's row contract
// makes the two bit-identical, so stored states do not depend on how
// sessions were grouped (pinned by TestBatchedFinalisationMatchesSequential
// and its f32 twin).

// DueSession is one session from arming to finalisation: the processor
// buffers it while the session is in flight (start context, accessed flag)
// and hands it to the finaliser, by value, when its timer fires.
type DueSession struct {
	UserID   int
	Start    int64
	Cat      []int
	Accessed bool
}

// tierCell is the per-precision half of the finaliser: typed state/input/
// next panels and the calls into the model's cell. Rows are indexed within
// the current wave. Everything about waves, keys, h_0, Δt and the store
// stays in BatchFinalizer.
type tierCell interface {
	// reset recycles the panels for a wave of w rows.
	reset(w int)
	// decode reads a stored state into row r; it fails on a dimension
	// mismatch, which doubles as the stale-state check.
	decode(r int, raw []byte) (lastTS int64, ok bool)
	zero(r int)
	input(r int, ts int64, cat []int, accessed bool, dt int64)
	// stepOne advances row 0 through the scalar kernel, stepBatch every
	// row through the batched one.
	stepOne()
	stepBatch()
	encode(dst []byte, r int, ts int64) []byte
}

// BatchFinalizer applies groups of due sessions to the store. It owns its
// scratch, so each instance must be used from one goroutine at a time (one
// per lane worker); the store may be shared as long as no two finalisers
// run for the same user at once.
type BatchFinalizer struct {
	store    Store
	cell     tierCell
	tier     nn.PrecisionTier
	maxBatch int
	enc      []byte
	// seen counts sessions per user within the current group; wave holds
	// each session's assigned wave; rows indexes the current wave's
	// sessions; keys holds the current wave's KV keys (built once, used for
	// Get and Put).
	seen map[int]int
	wave []int
	rows []int
	keys []string
}

// checkTier reports whether the model's cell can run the tier: TierF32
// needs a cell with an f32 inference tier (the GRU; stacked/LSTM/tanh cells
// have none), the f64 reference tier is always available.
func checkTier(model *core.Model, tier nn.PrecisionTier) error {
	if tier == nn.TierF32 && !model.SupportsF32() {
		return fmt.Errorf("serving: %s cell has no f32 inference tier", model.Cfg.Cell)
	}
	return nil
}

// NewBatchFinalizerTier sizes a finaliser for groups of up to maxBatch
// sessions (larger inputs are chunked) on the given compute tier, fixed for
// the finaliser's lifetime. The worst-case wave is preallocated, so
// finalisation allocates nothing beyond the key string and the store's
// defensive copies.
func NewBatchFinalizerTier(model *core.Model, store Store, maxBatch int, tier nn.PrecisionTier) (*BatchFinalizer, error) {
	if err := checkTier(model, tier); err != nil {
		return nil, err
	}
	return newFinalizer(model, store, maxBatch, tier), nil
}

// newFinalizer is NewBatchFinalizerTier for callers that have already
// checked the tier.
func newFinalizer(model *core.Model, store Store, maxBatch int, tier nn.PrecisionTier) *BatchFinalizer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	f := &BatchFinalizer{
		store:    store,
		tier:     tier,
		maxBatch: maxBatch,
		seen:     make(map[int]int),
		keys:     make([]string, 0, maxBatch),
	}
	if tier == nn.TierF32 {
		f.cell = newCell32(model, maxBatch)
	} else {
		f.cell = newCell64(model, maxBatch)
	}
	return f
}

// Finalize runs the GRU update for every session in due, in order, in
// groups of up to maxBatch. The slice must be in finalisation (timer) order
// and may hold several sessions of the same user; the wave partition keeps
// their updates ordered.
func (f *BatchFinalizer) Finalize(due []DueSession) {
	for len(due) > 0 {
		n := min(len(due), f.maxBatch)
		f.finalizeGroup(due[:n])
		due = due[n:]
	}
}

func (f *BatchFinalizer) finalizeGroup(group []DueSession) {
	if len(group) == 1 {
		f.rows = append(f.rows[:0], 0)
		f.finalizeWave(group)
		return
	}
	clear(f.seen)
	f.wave = f.wave[:0]
	maxWave := 0
	for i := range group {
		w := f.seen[group[i].UserID]
		f.seen[group[i].UserID] = w + 1
		f.wave = append(f.wave, w)
		if w > maxWave {
			maxWave = w
		}
	}
	for w := 0; w <= maxWave; w++ {
		f.rows = f.rows[:0]
		for i, gw := range f.wave {
			if gw == w {
				f.rows = append(f.rows, i)
			}
		}
		f.finalizeWave(group)
	}
}

// finalizeWave runs one wave (f.rows) of the group: gather states and
// inputs into the panels, one cell advance, scatter the results back to the
// store — one Get and one Put per session whatever the wave size.
func (f *BatchFinalizer) finalizeWave(group []DueSession) {
	f.cell.reset(len(f.rows))
	f.keys = f.keys[:0]
	for r, gi := range f.rows {
		d := &group[gi]
		key := hiddenKey(d.UserID)
		f.keys = append(f.keys, key)
		var lastTS int64
		decoded := false
		if raw, found := f.store.Get(key); found {
			lastTS, decoded = f.cell.decode(r, raw)
		}
		if !decoded {
			f.cell.zero(r) // h_0 (§6.1)
			lastTS = 0
		}
		var dt int64
		if lastTS != 0 {
			dt = d.Start - lastTS
		}
		f.cell.input(r, d.Start, d.Cat, d.Accessed, dt)
	}
	if len(f.rows) == 1 {
		f.cell.stepOne()
	} else {
		f.cell.stepBatch()
	}
	for r, gi := range f.rows {
		f.enc = f.cell.encode(f.enc, r, group[gi].Start)
		f.store.Put(f.keys[r], f.enc)
	}
}

// cell64 is the f64 reference tier: bit-identical to training.
type cell64 struct {
	m                *core.Model
	arena            *tensor.Arena
	scalar           tensor.Vector // scratch of the scalar step
	states, xs, next *tensor.Matrix
}

func newCell64(m *core.Model, maxBatch int) *cell64 {
	panels := maxBatch * (2*m.StateSize() + m.UpdateDim())
	return &cell64{
		m:      m,
		arena:  tensor.NewArena(panels + m.BatchUpdateScratchSize(maxBatch)),
		scalar: tensor.NewVector(m.UpdateScratchSize()),
	}
}

func (c *cell64) reset(w int) {
	c.arena.Reset()
	c.states = c.arena.Matrix(w, c.m.StateSize())
	c.xs = c.arena.Matrix(w, c.m.UpdateDim())
	c.next = c.arena.Matrix(w, c.m.StateSize())
}

func (c *cell64) decode(r int, raw []byte) (int64, bool) {
	return DecodeHiddenInto(raw, c.states.Row(r))
}

func (c *cell64) zero(r int) { c.states.Row(r).Zero() }

func (c *cell64) input(r int, ts int64, cat []int, accessed bool, dt int64) {
	c.m.BuildUpdateInput(ts, cat, accessed, dt, c.xs.Row(r))
}

func (c *cell64) stepOne() {
	c.m.UpdateStateInto(c.next.Row(0), c.states.Row(0), c.xs.Row(0), c.scalar)
}

func (c *cell64) stepBatch() { c.m.UpdateStatesInto(c.next, c.states, c.xs, c.arena) }

func (c *cell64) encode(dst []byte, r int, ts int64) []byte {
	return EncodeHiddenInto(dst, c.next.Row(r), ts)
}

// cell32 is the f32 fast tier: the model's fused float32 GRU kernels. The
// wire format is shared with the f64 tier (the store is float32 already),
// so switching tiers never rewrites the store. The input panel is
// UpdateDim32 wide (padded to the packed-kernel reduction width). Within
// the tier every grouping stores bit-identical states; across tiers the
// agreement is bounded-error (TestF32TierBoundedErrorVsF64).
type cell32 struct {
	m                *core.Model
	arena            *tensor.Arena32
	scalar           tensor.Vector32
	states, xs, next *tensor.Matrix32
}

func newCell32(m *core.Model, maxBatch int) *cell32 {
	panels := maxBatch * (2*m.StateSize() + m.UpdateDim32())
	return &cell32{
		m:      m,
		arena:  tensor.NewArena32(panels + m.BatchUpdateScratchSize32(maxBatch)),
		scalar: tensor.NewVector32(m.UpdateScratchSize32()),
	}
}

func (c *cell32) reset(w int) {
	c.arena.Reset()
	c.states = c.arena.Matrix(w, c.m.StateSize())
	c.xs = c.arena.Matrix(w, c.m.UpdateDim32())
	c.next = c.arena.Matrix(w, c.m.StateSize())
}

func (c *cell32) decode(r int, raw []byte) (int64, bool) {
	return DecodeHiddenInto32(raw, c.states.Row(r))
}

func (c *cell32) zero(r int) { c.states.Row(r).Zero() }

func (c *cell32) input(r int, ts int64, cat []int, accessed bool, dt int64) {
	c.m.BuildUpdateInput32(ts, cat, accessed, dt, c.xs.Row(r))
}

func (c *cell32) stepOne() {
	c.m.UpdateStateInto32(c.next.Row(0), c.states.Row(0), c.xs.Row(0), c.scalar)
}

func (c *cell32) stepBatch() { c.m.UpdateStatesInto32(c.next, c.states, c.xs, c.arena) }

func (c *cell32) encode(dst []byte, r int, ts int64) []byte {
	return EncodeHiddenInto32(dst, c.next.Row(r), ts)
}
