package serving

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// storeImpls returns one fresh instance of every in-package Store
// implementation, keyed by name.
func storeImpls() map[string]Store {
	return map[string]Store{
		"KVStore":        NewKVStore(),
		"ShardedKVStore": NewShardedKVStore(4),
	}
}

func TestStoreKeysAndDelete(t *testing.T) {
	for name, s := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			if got := s.Keys(); len(got) != 0 {
				t.Fatalf("empty store has keys: %v", got)
			}
			want := []string{"h:1", "h:2", "h:3"}
			for _, k := range want {
				s.Put(k, []byte{1, 2, 3})
			}
			got := s.Keys()
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			s.Delete("h:2")
			s.Delete("h:2") // deleting a missing key is a no-op
			got = s.Keys()
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint([]string{"h:1", "h:3"}) {
				t.Fatalf("Keys after delete = %v", got)
			}
		})
	}
}

func TestStoreBytesStoredIncremental(t *testing.T) {
	for name, s := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			check := func(want int64) {
				t.Helper()
				if got := s.Stats().BytesStored; got != want {
					t.Fatalf("BytesStored = %d, want %d", got, want)
				}
			}
			check(0)
			s.Put("aa", make([]byte, 10)) // 2 + 10
			check(12)
			s.Put("b", make([]byte, 5)) // + 1 + 5
			check(18)
			s.Put("aa", make([]byte, 3)) // overwrite: 12 -> 5
			check(11)
			s.Delete("missing")
			check(11)
			s.Delete("aa")
			check(6)
			s.Delete("b")
			check(0)
		})
	}
}

func TestServiceColdStartAndDecodeFailureCounters(t *testing.T) {
	data := synth.GenerateMobileTab(synth.MobileTabConfig{Users: 2, Days: 3, Seed: 9})
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	m := core.New(data.Schema, cfg)

	store := NewKVStore()
	svc := NewPredictionService(m, store, 0.5)

	// No stored state: cold start, not a decode failure.
	svc.OnSessionStart(1, 1000, []int{0, 0})
	if svc.ColdStarts.Load() != 1 || svc.DecodeFailures.Load() != 0 {
		t.Fatalf("miss: cold=%d fail=%d", svc.ColdStarts.Load(), svc.DecodeFailures.Load())
	}

	// Corrupt state: both counters move.
	store.Put(hiddenKey(2), []byte{1, 2, 3})
	svc.OnSessionStart(2, 1000, []int{0, 0})
	if svc.ColdStarts.Load() != 2 || svc.DecodeFailures.Load() != 1 {
		t.Fatalf("corrupt: cold=%d fail=%d", svc.ColdStarts.Load(), svc.DecodeFailures.Load())
	}

	// Wrong dimension: decodes but mismatches StateSize — still a failure.
	wrong := EncodeHidden(make([]float64, m.StateSize()+1), 500)
	store.Put(hiddenKey(3), wrong)
	svc.OnSessionStart(3, 1000, []int{0, 0})
	if svc.ColdStarts.Load() != 3 || svc.DecodeFailures.Load() != 2 {
		t.Fatalf("dim mismatch: cold=%d fail=%d", svc.ColdStarts.Load(), svc.DecodeFailures.Load())
	}

	// Valid state: neither counter moves.
	good := EncodeHidden(make([]float64, m.StateSize()), 500)
	store.Put(hiddenKey(4), good)
	svc.OnSessionStart(4, 1000, []int{0, 0})
	if svc.ColdStarts.Load() != 3 || svc.DecodeFailures.Load() != 2 {
		t.Fatalf("warm: cold=%d fail=%d", svc.ColdStarts.Load(), svc.DecodeFailures.Load())
	}
}

// TestShardedKVPutOverwriteAllocs pins the in-place overwrite: replacing a
// stored value with one of the same length — every state update after a
// user's first — allocates nothing, leaves BytesStored as it was, and a
// value handed out by an earlier Get keeps its bytes.
func TestShardedKVPutOverwriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	for name, s := range storeImpls() {
		t.Run(name, func(t *testing.T) {
			const key = "h:12345"
			val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			s.Put(key, val)
			before, _ := s.Get(key)
			stored := s.Stats().BytesStored
			val[0] = 9
			if allocs := testing.AllocsPerRun(100, func() { s.Put(key, val) }); allocs != 0 {
				t.Errorf("same-length overwrite: %v allocs/Put, want 0", allocs)
			}
			if got := s.Stats().BytesStored; got != stored {
				t.Errorf("BytesStored %d after overwrites, want %d", got, stored)
			}
			if got, _ := s.Get(key); got[0] != 9 {
				t.Errorf("overwrite lost: stored %v", got)
			}
			if before[0] != 1 {
				t.Errorf("a value returned by Get changed under its caller: %v", before)
			}
		})
	}
}
