package serving

import (
	"container/heap"
	"strconv"

	"repro/internal/core"
	"repro/internal/nn"
)

// The stream processor reproduces §9's update pipeline: context variables
// are published at session start, access events arrive during the session,
// both tagged by session ID; a timer fires after the session length (+
// processing lag ε), at which point the processor joins the buffered
// events, retrieves the user's hidden state, executes the GRU part of the
// model and writes the new hidden state back.

// timerEntry schedules a session finalisation.
type timerEntry struct {
	fireAt    int64
	sessionID string
}

type timerHeap []timerEntry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].fireAt < h[j].fireAt }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// StreamProcessor consumes session-start and access events (the Kafka
// analogue): it is the ingest front — session buffers, finalisation timers,
// virtual clock — plus one drain loop that hands due sessions, in timer
// order, either to a sink (SetSink) or to an inline finaliser that
// maintains the per-user hidden states in the KV store.
type StreamProcessor struct {
	model *core.Model
	store Store
	// Epsilon is the processing lag ε added to the session length before
	// the finalisation timer fires.
	Epsilon int64

	buffers map[string]*DueSession
	timers  timerHeap
	now     int64

	// sink, when set, receives due sessions instead of the inline
	// finaliser.
	sink func(DueSession)
	// fin finalises due sessions inline, one at a time through the scalar
	// kernel by default (the sequential oracle every other configuration is
	// compared against); due is its reusable drain buffer.
	fin *BatchFinalizer
	due []DueSession

	// UpdatesRun counts inline GRU executions (the paper's most expensive
	// model component runs once per session, off the critical path). A sink
	// owner counts its own.
	UpdatesRun int64
}

// NewStreamProcessor wires a model and store.
func NewStreamProcessor(model *core.Model, store Store) *StreamProcessor {
	return &StreamProcessor{
		model:   model,
		store:   store,
		Epsilon: core.DefaultEpsilon,
		buffers: make(map[string]*DueSession),
		fin:     newFinalizer(model, store, 1, nn.TierF64),
	}
}

// SetSink diverts due sessions to sink instead of finalising them inline:
// Advance becomes a non-blocking submit path and the sink owner decides
// when (and how batched) the GRU updates run — a request-driven server
// cannot finalise on the ingesting goroutine, because finalisation is the
// expensive part and must be coalesced across concurrent requests. The sink
// is called in drain order while the processor's invariants hold, so a sink
// that preserves per-user FIFO order (a LanePool) keeps stored states
// byte-identical to the inline path. Passing nil restores inline
// finalisation.
func (p *StreamProcessor) SetSink(sink func(DueSession)) { p.sink = sink }

// SetInferBatch makes the inline finaliser advance due sessions in groups
// of up to n through the batched cell — two GEMMs per wave instead of two
// matrix-vector products per session. n <= 1 restores one session at a
// time. Stored states are byte-identical either way.
func (p *StreamProcessor) SetInferBatch(n int) {
	p.fin = newFinalizer(p.model, p.store, n, p.fin.tier)
}

// SetPrecision selects the inline finaliser's compute tier: TierF64 (the
// bit-exact training reference, default) or TierF32, the fused float32
// kernels — roughly 2-4× the f64 throughput at the paper's hidden sizes —
// which requires a cell with an f32 tier (the GRU; stacked/LSTM/tanh cells
// return an error). The stored wire format is the same either way, so the
// tier can be switched mid-replay without a store rewrite; agreement with
// the f64 tier is bounded-error (see DESIGN.md "Precision tiers"). Not safe
// to call concurrently with event ingestion.
func (p *StreamProcessor) SetPrecision(t nn.PrecisionTier) error {
	if err := checkTier(p.model, t); err != nil {
		return err
	}
	p.fin = newFinalizer(p.model, p.store, p.fin.maxBatch, t)
	return nil
}

// hiddenKey is the per-user KV key.
func hiddenKey(userID int) string { return "h:" + strconv.Itoa(userID) }

// HiddenKey exposes the per-user KV key to the cluster tier: a user's ring
// position is the hash of their hidden-state key, so routing a user and
// matching their stored key against a hash arc agree by construction.
func HiddenKey(userID int) string { return hiddenKey(userID) }

// UserKeyHash is KeyHash(HiddenKey(userID)) computed without building the
// key string. The router's splice path calls it once per event, so the
// digits render into a stack buffer and hash in place; a test pins the
// equivalence against the string path.
func UserKeyHash(userID int) uint32 {
	var buf [24]byte
	b := append(buf[:0], 'h', ':')
	b = strconv.AppendInt(b, int64(userID), 10)
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime
	}
	return h
}

// Advance moves the virtual clock to ts, firing any due timers in order:
// each due session goes to the sink if one is set, otherwise the drained
// group is finalised inline before Advance returns.
func (p *StreamProcessor) Advance(ts int64) {
	for len(p.timers) > 0 && p.timers[0].fireAt <= ts {
		e := heap.Pop(&p.timers).(timerEntry)
		p.now = e.fireAt
		buf, ok := p.buffers[e.sessionID]
		if !ok {
			continue
		}
		delete(p.buffers, e.sessionID)
		if p.sink != nil {
			p.sink(*buf)
		} else {
			p.due = append(p.due, *buf)
		}
	}
	if len(p.due) > 0 {
		p.fin.Finalize(p.due)
		p.UpdatesRun += int64(len(p.due))
		p.due = p.due[:0]
	}
	if ts > p.now {
		p.now = ts
	}
}

// OnSessionStart records the context of a new session and arms its
// finalisation timer.
func (p *StreamProcessor) OnSessionStart(sessionID string, userID int, ts int64, cat []int) {
	p.Advance(ts)
	p.buffers[sessionID] = &DueSession{
		UserID: userID,
		Start:  ts,
		Cat:    append([]int(nil), cat...),
	}
	heap.Push(&p.timers, timerEntry{
		fireAt:    ts + p.model.Schema.SessionLength + p.Epsilon,
		sessionID: sessionID,
	})
}

// OnAccess records an access event for an in-flight session. Events for
// unknown or already-finalised sessions are dropped (matching at-most-once
// buffering semantics).
func (p *StreamProcessor) OnAccess(sessionID string, ts int64) {
	p.Advance(ts)
	if buf, ok := p.buffers[sessionID]; ok {
		buf.Accessed = true
	}
}

// Flush fires all outstanding timers regardless of the clock (end of
// replay).
func (p *StreamProcessor) Flush() {
	if len(p.timers) == 0 {
		return
	}
	last := p.timers[0].fireAt
	for _, e := range p.timers {
		if e.fireAt > last {
			last = e.fireAt
		}
	}
	p.Advance(last)
}

// Pending returns the number of in-flight sessions.
func (p *StreamProcessor) Pending() int { return len(p.buffers) }
