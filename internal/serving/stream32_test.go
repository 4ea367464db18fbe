package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// replayScalar32 replays evs through a sequential per-session processor on
// the f32 tier — the reference every other f32 path must match byte for
// byte.
func replayScalar32(t *testing.T, m *core.Model, evs []replayEvent) *KVStore {
	t.Helper()
	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	if err := p.SetPrecision(nn.TierF32); err != nil {
		t.Fatalf("SetPrecision(f32): %v", err)
	}
	for _, e := range evs {
		p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			p.OnAccess(e.sid, e.ts+30)
		}
	}
	p.Flush()
	return store
}

// TestF32FinalisationMatchesAcrossPaths is the f32 tier's replay
// equivalence: sequential batched drains, the parallel worker pool, and the
// async BatchFinalizer must all store states byte-identical to the scalar
// f32 path, exactly as the f64 paths match theirs.
func TestF32FinalisationMatchesAcrossPaths(t *testing.T) {
	m := testModel()
	const users = 24
	evs := syntheticLog(users, 6)
	want := replayScalar32(t, m, evs)

	for _, batch := range []int{2, 7, 16, 64} {
		store := NewKVStore()
		p := NewStreamProcessor(m, store)
		p.SetInferBatch(batch)
		if err := p.SetPrecision(nn.TierF32); err != nil {
			t.Fatalf("SetPrecision(f32): %v", err)
		}
		for _, e := range evs {
			p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
			if e.access {
				p.OnAccess(e.sid, e.ts+30)
			}
		}
		p.Flush()
		if p.UpdatesRun != int64(len(evs)) {
			t.Fatalf("batch %d: UpdatesRun %d, want %d", batch, p.UpdatesRun, len(evs))
		}
		if st := store.Stats(); st.Gets != int64(len(evs)) || st.Puts != int64(len(evs)) {
			t.Fatalf("batch %d: store traffic %d gets / %d puts, want %d each", batch, st.Gets, st.Puts, len(evs))
		}
		requireSameStates(t, fmt.Sprintf("f32 sequential batch %d", batch), users, want, store)

		parStore := NewShardedKVStore(16)
		par := mustParallel(t, m, parStore, 4, batch, nn.TierF32)
		for _, e := range evs {
			par.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
			if e.access {
				par.OnAccess(e.sid, e.ts+30)
			}
		}
		par.Close()
		if got := par.UpdatesRun(); got != int64(len(evs)) {
			t.Fatalf("parallel f32 batch %d: UpdatesRun %d, want %d", batch, got, len(evs))
		}
		requireSameStates(t, fmt.Sprintf("f32 parallel batch %d", batch), users, want, parStore)
	}
}

// TestF32BatchFinalizer drives the async back half on the f32 tier: due
// sessions in event order through NewBatchFinalizerTier must match the
// scalar f32 replay (per-user order is preserved by the wave partition).
func TestF32BatchFinalizer(t *testing.T) {
	m := testModel()
	const users = 12
	evs := syntheticLog(users, 5)
	want := replayScalar32(t, m, evs)

	due := make([]DueSession, 0, len(evs))
	for _, e := range evs {
		due = append(due, DueSession{
			UserID:   e.userID,
			Start:    e.ts,
			Cat:      e.cat,
			Accessed: e.access,
		})
	}
	for _, maxBatch := range []int{3, 16, len(evs)} {
		store := NewKVStore()
		f := mustFinalizer(t, m, store, maxBatch, nn.TierF32)
		f.Finalize(due)
		requireSameStates(t, fmt.Sprintf("f32 finalizer max %d", maxBatch), users, want, store)
	}
}

// TestF32WavePartition forces many sessions of the same users into a single
// f32 drain, so correctness depends on the f32 wave partition applying each
// user's sessions in order.
func TestF32WavePartition(t *testing.T) {
	m := testModel()
	const users = 5
	const rounds = 9
	var evs []replayEvent
	start := synth.DefaultStart
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			evs = append(evs, replayEvent{
				sid:    fmt.Sprintf("u%d-s%d", u, r),
				userID: u,
				ts:     start + int64(r*users+u),
				cat:    []int{(u + r) % 4, r % 3},
				access: r%2 == 0,
			})
		}
	}
	want := replayScalar32(t, m, evs)

	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	p.SetInferBatch(users * rounds) // one group holds every session
	if err := p.SetPrecision(nn.TierF32); err != nil {
		t.Fatalf("SetPrecision(f32): %v", err)
	}
	for _, e := range evs {
		p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			p.OnAccess(e.sid, e.ts+1)
		}
	}
	p.Flush()
	requireSameStates(t, "f32 wave partition", users, want, store)
}

// TestF32TierBoundedErrorVsF64 pins the cross-tier contract: over a chained
// multi-session replay, every stored f32 state stays within float32
// round-off of the f64 reference, and the timestamps agree exactly.
func TestF32TierBoundedErrorVsF64(t *testing.T) {
	m := testModel()
	const users = 16
	evs := syntheticLog(users, 8)
	f64Store := replayScalar(m, evs)
	f32Store := replayScalar32(t, m, evs)

	h64 := tensor.NewVector(m.StateSize())
	h32 := tensor.NewVector32(m.StateSize())
	maxErr := 0.0
	for u := 0; u < users; u++ {
		a, okA := f64Store.Get(hiddenKey(u))
		b, okB := f32Store.Get(hiddenKey(u))
		if !okA || !okB {
			t.Fatalf("user %d: missing state (f64 %v, f32 %v)", u, okA, okB)
		}
		tsA, decA := DecodeHiddenInto(a, h64)
		tsB, decB := DecodeHiddenInto32(b, h32)
		if !decA || !decB {
			t.Fatalf("user %d: decode failed (f64 %v, f32 %v)", u, decA, decB)
		}
		if tsA != tsB {
			t.Fatalf("user %d: lastTS %d (f64) vs %d (f32)", u, tsA, tsB)
		}
		for i := range h64 {
			if d := math.Abs(h64[i] - float64(h32[i])); d > maxErr {
				maxErr = d
			}
		}
	}
	// GRU states live in (-1, 1); after 8 chained sessions the tiers should
	// agree to well under 1e-3 absolute.
	if maxErr > 2e-3 {
		t.Fatalf("f32 tier diverged from f64: max abs error %v", maxErr)
	}
}

// TestF32PrecisionRequiresCellSupport: cells without the f32 tier must be
// rejected at every construction/selection point, and the processor must
// stay on the f64 tier afterwards.
func TestF32PrecisionRequiresCellSupport(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cell = nn.CellLSTM
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	lstm := core.New(synth.MobileTabSchema(), cfg)
	if lstm.SupportsF32() {
		t.Fatal("LSTM must not report f32 support")
	}

	p := NewStreamProcessor(lstm, NewKVStore())
	if err := p.SetPrecision(nn.TierF32); err == nil {
		t.Fatal("SetPrecision(f32) must fail for an LSTM cell")
	}
	if p.Precision() != nn.TierF64 {
		t.Fatalf("precision after rejected switch: %v, want f64", p.Precision())
	}
	if _, err := NewParallelStreamProcessor(lstm, NewShardedKVStore(4), 2, 4, nn.TierF32); err == nil {
		t.Fatal("NewParallelStreamProcessor(f32) must fail for an LSTM cell")
	}
	if _, err := NewBatchFinalizerTier(lstm, NewKVStore(), 8, nn.TierF32); err == nil {
		t.Fatal("NewBatchFinalizerTier(f32) must fail for an LSTM cell")
	}

	// Stacked GRUs have no f32 tier either (yet).
	cfg = core.DefaultConfig()
	cfg.Cell = nn.CellGRU
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	cfg.Layers = 2
	if core.New(synth.MobileTabSchema(), cfg).SupportsF32() {
		t.Fatal("stacked GRU must not report f32 support")
	}

	// The f64 tier is always available.
	if err := p.SetPrecision(nn.TierF64); err != nil {
		t.Fatalf("SetPrecision(f64): %v", err)
	}
}

// TestHiddenCodec32 pins the shared-wire property: the f32 codec reads what
// the f64 codec wrote (and vice versa), because the wire format is float32
// either way.
func TestHiddenCodec32(t *testing.T) {
	h32 := tensor.Vector32{0.5, -0.25, 0.125, -1}
	buf := EncodeHiddenInto32(nil, h32, 777)

	// f32 round trip is exact.
	got32 := tensor.NewVector32(4)
	ts, ok := DecodeHiddenInto32(buf, got32)
	if !ok || ts != 777 {
		t.Fatalf("f32 decode: ok=%v ts=%d", ok, ts)
	}
	for i := range h32 {
		if math.Float32bits(got32[i]) != math.Float32bits(h32[i]) {
			t.Fatalf("f32 round trip %d: %v -> %v", i, h32[i], got32[i])
		}
	}

	// The f64 codec reads the f32-written bytes by exact widening.
	got64 := tensor.NewVector(4)
	ts, ok = DecodeHiddenInto(buf, got64)
	if !ok || ts != 777 {
		t.Fatalf("f64 decode of f32 bytes: ok=%v ts=%d", ok, ts)
	}
	for i := range h32 {
		if got64[i] != float64(h32[i]) {
			t.Fatalf("cross-tier widen %d: %v -> %v", i, h32[i], got64[i])
		}
	}

	// And the f32 codec reads f64-written bytes (rounded at encode time).
	h64 := tensor.Vector{0.1, -0.9, 0.3, 1.5}
	buf64 := EncodeHiddenInto(nil, h64, 42)
	ts, ok = DecodeHiddenInto32(buf64, got32)
	if !ok || ts != 42 {
		t.Fatalf("f32 decode of f64 bytes: ok=%v ts=%d", ok, ts)
	}
	for i := range h64 {
		if got32[i] != float32(h64[i]) {
			t.Fatalf("cross-tier narrow %d: %v -> %v", i, h64[i], got32[i])
		}
	}

	// Dimension mismatch fails, same as the f64 codec.
	if _, ok := DecodeHiddenInto32(buf, tensor.NewVector32(5)); ok {
		t.Fatal("dimension mismatch must fail")
	}
	if _, ok := DecodeHiddenInto32(buf[:7], got32); ok {
		t.Fatal("truncated buffer must fail")
	}
}
