package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// referenceDecision is OnSessionStart as it was before the pooled scratch:
// allocating decode, allocating input, Model.Predict.
func referenceDecision(m *core.Model, store Store, threshold float64, userID int, ts int64, cat []int) Decision {
	h := m.InitialState()
	var lastTS int64
	if raw, ok := store.Get(hiddenKey(userID)); ok {
		if dec, t, ok2 := DecodeHidden(raw); ok2 && len(dec) == m.StateSize() {
			h, lastTS = dec, t
		}
	}
	var sinceK int64
	if lastTS != 0 {
		sinceK = ts - lastTS
	}
	p := m.Predict(h[:m.HiddenDim()], m.BuildPredictInput(ts, cat, sinceK, nil))
	return Decision{Probability: p, Precompute: p >= threshold}
}

// TestPredictScratchMatchesReference: decisions through the pooled scratch
// are bit-identical to the allocating reference for warm users, cold-start
// users and undecodable states, in an order that hands a warm user's
// scratch to a cold one.
func TestPredictScratchMatchesReference(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	proc := NewStreamProcessor(m, store)
	start := synth.DefaultStart
	for u := 0; u < 12; u += 2 {
		proc.OnSessionStart(fmt.Sprintf("w%d", u), u, start+int64(u), []int{u % 4, u % 3})
		proc.OnAccess(fmt.Sprintf("w%d", u), start+int64(u)+30)
	}
	proc.Flush()
	store.Put(hiddenKey(3), []byte{1, 2, 3})                      // garbage
	store.Put(hiddenKey(5), EncodeHidden(make([]float64, 3), 99)) // wrong dimension

	svc := NewPredictionService(m, store, 0.5)
	for u := 0; u < 12; u++ {
		ts, cat := start+9000+int64(u), []int{u % 4, 1}
		want := referenceDecision(m, store, 0.5, u, ts, cat)
		got := svc.OnSessionStart(u, ts, cat)
		if math.Float64bits(got.Probability) != math.Float64bits(want.Probability) || got.Precompute != want.Precompute {
			t.Fatalf("user %d: scratch %+v, reference %+v", u, got, want)
		}
	}
	if cold, bad := svc.ColdStarts.Load(), svc.DecodeFailures.Load(); cold != 6 || bad != 2 {
		t.Fatalf("cold starts %d (want 6), decode failures %d (want 2)", cold, bad)
	}
}

// TestPredictAllocs pins what a steady-state prediction allocates: the key
// string (one piece, whatever the number of digits) and the store's Get
// copy. The decoded state, the predict input and every MLP intermediate
// come from the pooled scratch.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	m := testModel()
	store := NewShardedKVStore(4)
	const user = 12345
	store.Put(hiddenKey(user), EncodeHidden(m.InitialState(), synth.DefaultStart))
	svc := NewPredictionService(m, store, 0.5)
	cat := []int{1, 2}
	for _, tc := range []struct {
		name string
		user int
	}{{"warm", user}, {"cold", user + 1}} {
		svc.OnSessionStart(tc.user, synth.DefaultStart+600, cat) // fill the pool
		allocs := testing.AllocsPerRun(200, func() { svc.OnSessionStart(tc.user, synth.DefaultStart+600, cat) })
		t.Logf("%s: %.2f allocs/predict", tc.name, allocs)
		if allocs > 2 {
			t.Errorf("%s: %.2f allocs/predict, want <= 2 (key, Get copy)", tc.name, allocs)
		}
	}
}
