package serving

import (
	"strconv"
	"strings"

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

// timerHeap is a binary min-heap on fireAt. push and pop run exactly
// container/heap's Push/up and Pop/down sift steps, so sessions that fire
// at the same instant drain in the same order as they would through
// container/heap (TestTimerHeapMatchesContainerHeap) — but without boxing
// every entry into an interface, which cost two allocations per session.
type timerHeap []timerEntry

// push adds e and sifts it up.
func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || q[j].fireAt >= q[i].fireAt {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the entry with the smallest fireAt.
func (h *timerHeap) pop() timerEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].fireAt < q[j].fireAt {
			j = j2
		}
		if q[j].fireAt >= q[i].fireAt {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = timerEntry{} // release the session ID
	*h = q[:n]
	return e
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

	// In-flight sessions are held by value: index maps a session ID to
	// its slot in slab, and free lists the slots to reuse, so at steady
	// state a session costs no allocation of its own.
	index  map[string]int32
	slab   []DueSession
	free   []int32
	timers timerHeap
	now    int64
	// ids and cats are append-only arenas for the session IDs (map keys
	// and timer IDs) and the start categories the processor must own. A
	// full arena is replaced, never reused, so a string or slice that
	// points into it stays valid for as long as anything holds it — a sink
	// that keeps DueSessions included — and the GC frees the arena after.
	ids  strings.Builder
	cats []int

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
		index:   make(map[string]int32),
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

// hiddenKey is the per-user KV key, rendered on the stack and converted
// once: one allocation whatever the number of digits.
func hiddenKey(userID int) string {
	var buf [24]byte
	return string(appendHiddenKey(buf[:0], userID))
}

// appendHiddenKey appends the bytes of hiddenKey(userID) to dst.
func appendHiddenKey(dst []byte, userID int) []byte {
	return strconv.AppendInt(append(dst, 'h', ':'), int64(userID), 10)
}

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
	b := appendHiddenKey(buf[:0], userID)
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
		e := p.timers.pop()
		p.now = e.fireAt
		i, ok := p.index[e.sessionID]
		if !ok {
			continue
		}
		delete(p.index, e.sessionID)
		d := p.slab[i]
		p.slab[i] = DueSession{}
		p.free = append(p.free, i)
		if p.sink != nil {
			p.sink(d)
		} else {
			p.due = append(p.due, d)
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
// finalisation timer. A start whose ID is still pending replaces the
// buffered session; the first armed timer finalises it. The processor
// keeps copies of sessionID and cat, so the caller may reuse both.
func (p *StreamProcessor) OnSessionStart(sessionID string, userID int, ts int64, cat []int) {
	p.Advance(ts)
	id := p.intern(sessionID)
	i, ok := p.index[sessionID]
	if !ok {
		if n := len(p.free); n > 0 {
			i = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			i = int32(len(p.slab))
			p.slab = append(p.slab, DueSession{})
		}
		p.index[id] = i
	}
	p.slab[i] = DueSession{UserID: userID, Start: ts, Cat: p.copyCat(cat)}
	p.timers.push(timerEntry{
		fireAt:    ts + p.model.Schema.SessionLength + p.Epsilon,
		sessionID: id,
	})
}

// OnAccess records an access event for an in-flight session. Events for
// unknown or already-finalised sessions are dropped (matching at-most-once
// buffering semantics).
func (p *StreamProcessor) OnAccess(sessionID string, ts int64) {
	p.Advance(ts)
	if i, ok := p.index[sessionID]; ok {
		p.slab[i].Accessed = true
	}
}

// Arena sizes: about 4 KiB of session IDs and 1 024 category ints each.
const (
	idArena  = 4 << 10
	catArena = 1 << 10
)

// intern returns a copy of id held by the ID arena.
func (p *StreamProcessor) intern(id string) string {
	if p.ids.Cap()-p.ids.Len() < len(id) {
		p.ids = strings.Builder{}
		p.ids.Grow(max(idArena, len(id)))
	}
	n := p.ids.Len()
	p.ids.WriteString(id)
	return p.ids.String()[n:]
}

// copyCat returns a copy of cat held by the category arena, capped so
// that an append by its holder cannot reach the next session's slice.
func (p *StreamProcessor) copyCat(cat []int) []int {
	if len(cat) == 0 {
		return nil
	}
	if cap(p.cats)-len(p.cats) < len(cat) {
		p.cats = make([]int, 0, max(catArena, len(cat)))
	}
	n := len(p.cats)
	p.cats = append(p.cats, cat...)
	return p.cats[n:len(p.cats):len(p.cats)]
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
func (p *StreamProcessor) Pending() int { return len(p.index) }
