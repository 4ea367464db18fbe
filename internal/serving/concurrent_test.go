package serving

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
)

func TestShardedKVStoreBasics(t *testing.T) {
	s := NewShardedKVStore(16)
	if _, ok := s.Get("missing"); ok {
		t.Fatalf("missing key must miss")
	}
	s.Put("a", []byte{1, 2, 3})
	v, ok := s.Get("a")
	if !ok || len(v) != 3 || v[0] != 1 {
		t.Fatalf("Get after Put: %v %v", v, ok)
	}
	// Returned slice must be a copy.
	v[0] = 99
	v2, _ := s.Get("a")
	if v2[0] != 1 {
		t.Fatalf("Get must return a copy")
	}
	// Stored slice must be a copy too.
	buf := []byte{7, 8}
	s.Put("b", buf)
	buf[0] = 9
	vb, _ := s.Get("b")
	if vb[0] != 7 {
		t.Fatalf("Put must copy the value")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatalf("Delete failed")
	}
	st := s.Stats()
	if st.Gets != 5 || st.Puts != 2 || st.Misses != 2 || st.Keys != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.BytesStored != int64(len("b")+2) {
		t.Fatalf("BytesStored: %d", st.BytesStored)
	}
}

func TestShardedKVStoreShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := NewShardedKVStore(tc.in).NumShards(); got != tc.want {
			t.Fatalf("NumShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedKVStoreConcurrent hammers one store from many goroutines with
// overlapping keys; run under -race this is the shard-locking proof.
func TestShardedKVStoreConcurrent(t *testing.T) {
	s := NewShardedKVStore(8)
	const goroutines = 16
	const opsPerG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(64))
				switch rng.Intn(4) {
				case 0:
					s.Put(key, []byte{byte(g), byte(i)})
				case 1:
					if v, ok := s.Get(key); ok && len(v) != 2 {
						t.Errorf("corrupt value %v", v)
					}
				case 2:
					s.Delete(key)
				default:
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts == 0 || st.Gets == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

// replayEvent is one synthetic session for the equivalence replays.
type replayEvent struct {
	sid    string
	userID int
	ts     int64
	cat    []int
	access bool
}

// syntheticLog builds a deterministic interleaved session log: users×rounds
// sessions in global timestamp order with varying contexts and access
// patterns.
func syntheticLog(users, rounds int) []replayEvent {
	var evs []replayEvent
	start := synth.DefaultStart
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			ts := start + int64(r)*7200 + int64(u)*11
			evs = append(evs, replayEvent{
				sid:    fmt.Sprintf("u%d-s%d", u, r),
				userID: u,
				ts:     ts,
				cat:    []int{(u + r) % 4, u % 3},
				access: (u+r)%3 == 0,
			})
		}
	}
	return evs
}

// mustParallel and mustFinalizer build on a tier the test model supports.
func mustParallel(t testing.TB, m *core.Model, store Store, workers, inferBatch int, tier nn.PrecisionTier) *ParallelStreamProcessor {
	t.Helper()
	p, err := NewParallelStreamProcessor(m, store, workers, inferBatch, tier)
	if err != nil {
		t.Fatalf("NewParallelStreamProcessor: %v", err)
	}
	return p
}

func mustFinalizer(t testing.TB, m *core.Model, store Store, maxBatch int, tier nn.PrecisionTier) *BatchFinalizer {
	t.Helper()
	f, err := NewBatchFinalizerTier(m, store, maxBatch, tier)
	if err != nil {
		t.Fatalf("NewBatchFinalizerTier: %v", err)
	}
	return f
}

// poolFlushModes are the lane pool's two coalescing modes: greedy (what
// ParallelStreamProcessor uses) and a max-wait hold (what the server uses).
var poolFlushModes = []time.Duration{-1, 500 * time.Microsecond}

// replayThroughPool replays evs through an ingest front whose sink is a
// lane pool sized by cfg — the server's composition, without the HTTP —
// then drains and closes the pool.
func replayThroughPool(t *testing.T, m *core.Model, store Store, evs []replayEvent, cfg LaneConfig) *LanePool {
	t.Helper()
	pool, err := NewLanePool(m, store, cfg)
	if err != nil {
		t.Fatalf("NewLanePool: %v", err)
	}
	front := NewStreamProcessor(m, store)
	front.SetSink(pool.Submit)
	for _, e := range evs {
		front.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			front.OnAccess(e.sid, e.ts+30)
		}
	}
	front.Flush()
	pool.Close()
	return pool
}

// TestParallelMatchesSequential replays the same synthetic log through the
// sequential processor (single-mutex store) and the parallel processor
// (sharded store, 8 workers) and requires byte-identical stored hidden
// states: per-user lanes keep each user's update order, and each user's
// state chain depends only on that user's sessions.
func TestParallelMatchesSequential(t *testing.T) {
	m := testModel()
	evs := syntheticLog(24, 6)

	seqStore := NewKVStore()
	seq := NewStreamProcessor(m, seqStore)
	for _, e := range evs {
		seq.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			seq.OnAccess(e.sid, e.ts+30)
		}
	}
	seq.Flush()

	parStore := NewShardedKVStore(16)
	par := mustParallel(t, m, parStore, 8, 1, nn.TierF64)
	for _, e := range evs {
		par.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			par.OnAccess(e.sid, e.ts+30)
		}
	}
	par.Close()

	if got, want := par.UpdatesRun(), seq.UpdatesRun; got != want {
		t.Fatalf("UpdatesRun: parallel %d vs sequential %d", got, want)
	}
	for u := 0; u < 24; u++ {
		a, okA := seqStore.Get(hiddenKey(u))
		b, okB := parStore.Get(hiddenKey(u))
		if !okA || !okB {
			t.Fatalf("user %d: missing state (seq %v, par %v)", u, okA, okB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("user %d: parallel hidden state differs from sequential", u)
		}
	}

	for _, wait := range poolFlushModes {
		poolStore := NewShardedKVStore(16)
		pool := replayThroughPool(t, m, poolStore, evs, LaneConfig{Lanes: 8, Depth: 8, MaxBatch: 1, MaxWait: wait})
		if got, want := pool.UpdatesRun(), seq.UpdatesRun; got != want {
			t.Fatalf("pool wait %v: UpdatesRun %d vs sequential %d", wait, got, want)
		}
		requireSameStates(t, fmt.Sprintf("pool wait %v", wait), 24, seqStore, poolStore)
	}
}

// TestLanePoolCloseIdempotent pins the pool's shutdown contract: Close
// drains what is queued, a second Close is a no-op, and Sync after Close
// returns at once (nothing is in flight, so a late /flush cannot hang).
func TestLanePoolCloseIdempotent(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	pool, err := NewLanePool(m, store, LaneConfig{Lanes: 2, Depth: 4, MaxBatch: 4, MaxWait: time.Hour})
	if err != nil {
		t.Fatalf("NewLanePool: %v", err)
	}
	const users = 6
	for u := 0; u < users; u++ {
		pool.Submit(DueSession{UserID: u, Start: synth.DefaultStart + int64(u), Cat: []int{1, 2}})
	}
	// MaxWait is an hour: only Close (the lanes closing) can flush the
	// partial batches.
	pool.Close()
	pool.Close()
	pool.Sync()
	if got := pool.UpdatesRun(); got != users {
		t.Fatalf("UpdatesRun after Close: %d, want %d", got, users)
	}
	if got := pool.Inflight(); got != 0 {
		t.Fatalf("Inflight after Close: %d", got)
	}
	if pool.Overloaded() {
		t.Fatal("a drained pool must not report overload")
	}
	if st := store.Stats(); st.Keys != users {
		t.Fatalf("stored keys: %d, want %d", st.Keys, users)
	}
}

// TestLanePoolMaxWaitRearms pins the lane worker's one reused wait timer:
// three lone sessions, each submitted after the previous one was applied,
// are each flushed as a partial batch by MaxWait, so the timer re-arms on
// every wait. The wait path of fillBatch allocates nothing.
func TestLanePoolMaxWaitRearms(t *testing.T) {
	const wait = 5 * time.Millisecond
	pool, err := NewLanePool(testModel(), NewKVStore(), LaneConfig{Lanes: 1, Depth: 4, MaxBatch: 4, MaxWait: wait})
	if err != nil {
		t.Fatalf("NewLanePool: %v", err)
	}
	defer pool.Close()
	for i := 1; i <= 3; i++ {
		t0 := time.Now()
		pool.Submit(DueSession{UserID: i, Start: synth.DefaultStart + int64(i), Cat: []int{1, 2}})
		synced := make(chan struct{})
		go func() {
			pool.Sync()
			close(synced)
		}()
		select {
		case <-synced:
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d: the partial batch was never flushed", i)
		}
		if d := time.Since(t0); d < wait {
			t.Fatalf("wait %d: flushed after %v, before MaxWait %v", i, d, wait)
		}
		if got := pool.Batches(); got != int64(i) {
			t.Fatalf("wait %d: %d batches, want %d", i, got, i)
		}
	}

	q := make(chan DueSession)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	batch := make([]DueSession, 1, 2)
	allocs := testing.AllocsPerRun(20, func() {
		batch = batch[:1]
		fillBatch(q, &batch, 2, 50*time.Microsecond, timer)
	})
	if allocs != 0 {
		t.Fatalf("fillBatch wait path: %v allocs per call, want 0", allocs)
	}
}

// TestParallelStreamProcessorConcurrent drives one processor from many
// goroutines at once (one goroutine per user, so per-user event order stays
// well defined) and checks every session is finalised exactly once.
func TestParallelStreamProcessorConcurrent(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(16)
	p := mustParallel(t, m, store, 4, 1, nn.TierF64)

	const users = 12
	const rounds = 8
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			start := synth.DefaultStart
			for r := 0; r < rounds; r++ {
				ts := start + int64(r)*7200
				sid := fmt.Sprintf("u%d-s%d", u, r)
				p.OnSessionStart(sid, u, ts, []int{u % 4, r % 3})
				if r%2 == 0 {
					p.OnAccess(sid, ts+30)
				}
			}
		}(u)
	}
	wg.Wait()
	p.Close()

	if got := p.UpdatesRun(); got != users*rounds {
		t.Fatalf("UpdatesRun: %d, want %d", got, users*rounds)
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending after Close: %d", p.Pending())
	}
	st := store.Stats()
	if st.Keys != users {
		t.Fatalf("stored keys: %d, want %d", st.Keys, users)
	}
}

// TestParallelSyncVisibility checks Advance+Sync gives the sequential
// path's read-your-writes behaviour: after Sync, the finalised session's
// state is visible in the store.
func TestParallelSyncVisibility(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	p := mustParallel(t, m, store, 2, 1, nn.TierF64)
	defer p.Close()

	start := synth.DefaultStart
	p.OnSessionStart("s1", 7, start, []int{1, 2})
	p.OnAccess("s1", start+60)
	if _, ok := store.Get(hiddenKey(7)); ok {
		t.Fatalf("hidden must not exist before finalisation")
	}
	p.Advance(start + m.Schema.SessionLength + core.DefaultEpsilon + 1)
	p.Sync()
	raw, ok := store.Get(hiddenKey(7))
	if !ok {
		t.Fatalf("hidden state missing after Advance+Sync")
	}
	if h, ts, ok2 := DecodeHidden(raw); !ok2 || ts != start || len(h) != m.StateSize() {
		t.Fatalf("stored hidden malformed")
	}
}

// TestBatchPredictionMatchesSequential compares OnSessionStartBatch against
// per-request OnSessionStart calls on a warmed store.
func TestBatchPredictionMatchesSequential(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(8)

	// Warm hidden states for half the users (the rest exercise cold start).
	proc := NewStreamProcessor(m, store)
	start := synth.DefaultStart
	for u := 0; u < 10; u += 2 {
		proc.OnSessionStart(fmt.Sprintf("w%d", u), u, start, []int{u % 4, 0})
	}
	proc.Flush()

	svc := NewPredictionService(m, store, 0.5)
	var reqs []PredictRequest
	for u := 0; u < 10; u++ {
		reqs = append(reqs, PredictRequest{UserID: u, Ts: start + 9000, Cat: []int{u % 4, 1}})
	}
	want := make([]Decision, len(reqs))
	for i, r := range reqs {
		want[i] = svc.OnSessionStart(r.UserID, r.Ts, r.Cat)
	}
	for _, workers := range []int{1, 4, 8} {
		got := svc.OnSessionStartBatch(reqs, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d req %d: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
	if svc.Predictions.Load() != int64(len(reqs)*4) {
		t.Fatalf("Predictions counter: %d", svc.Predictions.Load())
	}
}

// TestStreamProcessorAcceptsShardedStore checks the sequential processor
// works unchanged against the sharded store (the Store interface seam).
func TestStreamProcessorAcceptsShardedStore(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	p := NewStreamProcessor(m, store)
	p.OnSessionStart("s", 3, synth.DefaultStart, []int{0, 1})
	p.Flush()
	if _, ok := store.Get(hiddenKey(3)); !ok {
		t.Fatalf("sequential processor must work with the sharded store")
	}
}
