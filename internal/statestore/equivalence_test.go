package statestore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/synth"
)

// TestEvictionEquivalentToColdStart is the §9 fallback contract: after a
// user's hidden state is evicted, their next prediction must be bit-for-bit
// the prediction a genuinely new user with the same context would get —
// eviction degrades to cold start, never to garbage.
func TestEvictionEquivalentToColdStart(t *testing.T) {
	data := synth.GenerateMobileTab(synth.MobileTabConfig{Users: 40, Days: 5, Seed: 3})
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 12
	cfg.MLPHidden = 16
	m := core.New(data.Schema, cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchUsers = 4
	core.NewTrainer(m, tc).Train(data)

	store, err := Open(Options{EvictAfter: 3600})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	proc := serving.NewStreamProcessor(m, store)
	svc := serving.NewPredictionService(m, store, 0.5)

	// Warm user 1: two finalised sessions give it a non-trivial state.
	base := int64(1_000_000)
	cat := []int{3, 1}
	proc.OnSessionStart("s1", 1, base, cat)
	proc.OnAccess("s1", base+30)
	proc.OnSessionStart("s2", 1, base+5000, cat)
	proc.Flush()
	if len(store.Keys()) != 1 {
		t.Fatalf("warmup stored %d states", len(store.Keys()))
	}

	// The warm prediction must differ from cold start (otherwise the test
	// proves nothing).
	predTS := base + 50_000
	warm := svc.OnSessionStart(1, predTS, cat)
	coldRef := svc.OnSessionStart(999, predTS, cat) // never-seen user
	if warm.Probability == coldRef.Probability {
		t.Fatal("warm state indistinguishable from cold start; test is vacuous")
	}

	// Evict user 1 and require the exact cold-start bits.
	if n := evictIdle(store, predTS+store.opts.EvictAfter+10_000); n != 1 {
		t.Fatalf("evicted %d states, want 1", n)
	}
	afterEvict := svc.OnSessionStart(1, predTS, cat)
	if afterEvict.Probability != coldRef.Probability || afterEvict.Precompute != coldRef.Precompute {
		t.Fatalf("evicted user's prediction %v != cold start %v", afterEvict, coldRef)
	}
	// And it must count as a cold start, not a decode failure.
	if svc.DecodeFailures.Load() != 0 {
		t.Fatalf("eviction produced decode failures: %d", svc.DecodeFailures.Load())
	}
}

// TestProcessorsByteIdenticalOnStateStore re-runs the PR-1 equivalence
// invariant with the new store underneath both processors: with
// persistence, eviction, and quantization off, the statestore must be
// behaviourally identical to the in-memory stores.
func TestProcessorsByteIdenticalOnStateStore(t *testing.T) {
	data := synth.GenerateMobileTab(synth.MobileTabConfig{Users: 60, Days: 6, Seed: 5})
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 10
	m := core.New(data.Schema, cfg)

	run := func(store serving.Store, parallel bool) {
		var on func(sid string, u int, ts int64, cat []int)
		var acc func(sid string, ts int64)
		var fin func()
		if parallel {
			p, err := serving.NewParallelStreamProcessor(m, store, 4, 1, nn.TierF64)
			if err != nil {
				t.Fatalf("NewParallelStreamProcessor: %v", err)
			}
			on, acc, fin = p.OnSessionStart, p.OnAccess, p.Close
		} else {
			p := serving.NewStreamProcessor(m, store)
			on, acc, fin = p.OnSessionStart, p.OnAccess, p.Flush
		}
		sid := 0
		for _, u := range data.Users {
			for _, sess := range u.Sessions {
				sid++
				id := "s" + itoa(sid)
				on(id, u.ID, sess.Timestamp, sess.Cat)
				if sess.Access {
					acc(id, sess.Timestamp+30)
				}
			}
		}
		fin()
	}

	ref := serving.NewKVStore()
	run(ref, false)
	ss, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	run(ss, true)

	refKeys := ref.Keys()
	if len(refKeys) != len(ss.Keys()) {
		t.Fatalf("key counts differ: %d vs %d", len(refKeys), len(ss.Keys()))
	}
	for _, k := range refKeys {
		a, _ := ref.Get(k)
		b, ok := ss.Get(k)
		if !ok {
			t.Fatalf("statestore missing %s", k)
		}
		if string(a) != string(b) {
			t.Fatalf("state %s differs between KVStore and statestore", k)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
