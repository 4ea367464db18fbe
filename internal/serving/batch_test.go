package serving

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
)

// replayScalar replays evs through a sequential per-session processor and
// returns its store — the reference every batched variant must match byte
// for byte.
func replayScalar(m *core.Model, evs []replayEvent) *KVStore {
	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	for _, e := range evs {
		p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			p.OnAccess(e.sid, e.ts+30)
		}
	}
	p.Flush()
	return store
}

func requireSameStates(t *testing.T, name string, users int, want *KVStore, got Store) {
	t.Helper()
	for u := 0; u < users; u++ {
		a, okA := want.Get(hiddenKey(u))
		b, okB := got.Get(hiddenKey(u))
		if !okA || !okB {
			t.Fatalf("%s: user %d: missing state (scalar %v, batched %v)", name, u, okA, okB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: user %d: batched hidden state differs from scalar", name, u)
		}
	}
}

// TestBatchedFinalisationMatchesSequential is the batched analogue of
// TestParallelMatchesSequential: the sequential batched drain and the
// parallel batched worker drain must both store byte-identical hidden
// states to the per-session path, across batch sizes around the group and
// tile edges.
func TestBatchedFinalisationMatchesSequential(t *testing.T) {
	m := testModel()
	const users = 24
	evs := syntheticLog(users, 6)
	want := replayScalar(m, evs)

	for _, batch := range []int{2, 7, 16, 64} {
		store := NewKVStore()
		p := NewStreamProcessor(m, store)
		p.SetInferBatch(batch)
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
		requireSameStates(t, fmt.Sprintf("sequential batch %d", batch), users, want, store)

		parStore := NewShardedKVStore(16)
		par := mustParallel(t, m, parStore, 4, batch, nn.TierF64)
		for _, e := range evs {
			par.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
			if e.access {
				par.OnAccess(e.sid, e.ts+30)
			}
		}
		par.Close()
		if got := par.UpdatesRun(); got != int64(len(evs)) {
			t.Fatalf("parallel batch %d: UpdatesRun %d, want %d", batch, got, len(evs))
		}
		requireSameStates(t, fmt.Sprintf("parallel batch %d", batch), users, want, parStore)

		for _, wait := range poolFlushModes {
			poolStore := NewShardedKVStore(16)
			pool := replayThroughPool(t, m, poolStore, evs, LaneConfig{Lanes: 4, Depth: 8, MaxBatch: batch, MaxWait: wait})
			if got := pool.UpdatesRun(); got != int64(len(evs)) {
				t.Fatalf("pool batch %d wait %v: UpdatesRun %d, want %d", batch, wait, got, len(evs))
			}
			requireSameStates(t, fmt.Sprintf("pool batch %d wait %v", batch, wait), users, want, poolStore)
		}
	}
}

// TestBatchedWavePartition forces many sessions of the same users into one
// drain (all timers fire in a single Flush), so correctness depends on the
// wave partition applying each user's sessions in order.
func TestBatchedWavePartition(t *testing.T) {
	m := testModel()
	const users = 5
	const rounds = 9
	var evs []replayEvent
	start := synth.DefaultStart
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			// Seconds apart: every session of every user is due in the same
			// drain at Flush time.
			evs = append(evs, replayEvent{
				sid:    fmt.Sprintf("u%d-s%d", u, r),
				userID: u,
				ts:     start + int64(r*users+u),
				cat:    []int{(u + r) % 4, r % 3},
				access: r%2 == 0,
			})
		}
	}
	want := replayScalar(m, evs)

	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	p.SetInferBatch(users * rounds) // one group holds every session
	for _, e := range evs {
		p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			p.OnAccess(e.sid, e.ts+1)
		}
	}
	p.Flush()
	requireSameStates(t, "wave partition", users, want, store)
}

// TestBatchedStackedModel runs the equivalence over a 2-layer stacked GRU,
// exercising the stacked cell's batched gather/scatter path end to end.
func TestBatchedStackedModel(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	cfg.Layers = 2
	m := core.New(synth.MobileTabSchema(), cfg)
	const users = 12
	evs := syntheticLog(users, 4)
	want := replayScalar(m, evs)

	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	p.SetInferBatch(8)
	for _, e := range evs {
		p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			p.OnAccess(e.sid, e.ts+30)
		}
	}
	p.Flush()
	requireSameStates(t, "stacked", users, want, store)
}

// TestParallelBatchedConcurrent drives a batched worker pool from many
// goroutines at once — under -race this is the batched finaliser's
// concurrency proof (the serving race step in CI runs it).
func TestParallelBatchedConcurrent(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(16)
	p := mustParallel(t, m, store, 4, 8, nn.TierF64)

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
	if st := store.Stats(); st.Keys != users {
		t.Fatalf("stored keys: %d, want %d", st.Keys, users)
	}
}

// TestBatchedSyncVisibility checks Advance+Sync read-your-writes holds
// with the batched worker drain.
func TestBatchedSyncVisibility(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	p := mustParallel(t, m, store, 2, 16, nn.TierF64)
	defer p.Close()

	start := synth.DefaultStart
	for i := 0; i < 6; i++ {
		p.OnSessionStart(fmt.Sprintf("s%d", i), 40+i, start+int64(i), []int{1, 2})
	}
	p.Advance(start + m.Schema.SessionLength + core.DefaultEpsilon + 10)
	p.Sync()
	for i := 0; i < 6; i++ {
		if _, ok := store.Get(hiddenKey(40 + i)); !ok {
			t.Fatalf("user %d state missing after Advance+Sync", 40+i)
		}
	}
}

// TestFinalizeAllocs pins what the finaliser allocates per session — the
// key string, the store's Get copy and its Put copy — which the benchmark's
// allocs_per_session (bound 2 %) rests on. Nothing may allocate per group,
// per wave or per tier adapter.
func TestFinalizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	m := testModel()
	// 32 sessions over 31 users: the repeated user forces a second, one-row
	// wave inside the batch-32 group.
	const sessions = 32
	due := make([]DueSession, sessions)
	for i := range due {
		due[i] = DueSession{
			UserID: i % (sessions - 1), Start: synth.DefaultStart + int64(i),
			Cat: []int{i % 4, i % 3}, Accessed: i%3 == 0,
		}
	}
	for _, tier := range []nn.PrecisionTier{nn.TierF64, nn.TierF32} {
		for _, batch := range []int{1, sessions} {
			store := NewShardedKVStore(16)
			fin := mustFinalizer(t, m, store, batch, tier)
			fin.Finalize(due) // warm the store and the finaliser's buffers
			perSession := testing.AllocsPerRun(100, func() { fin.Finalize(due) }) / sessions
			t.Logf("%s batch %d: %.3f allocs/session", tier, batch, perSession)
			if perSession > 3 {
				t.Errorf("%s batch %d: %.3f allocs/session, want <= 3 (key, Get copy, Put copy)", tier, batch, perSession)
			}
		}
	}
}
