package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func TestKVStoreBasics(t *testing.T) {
	s := NewKVStore()
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
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatalf("Delete failed")
	}

	st := s.Stats()
	if st.Gets != 4 || st.Puts != 1 || st.Misses != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestKVStorePutCopies(t *testing.T) {
	s := NewKVStore()
	buf := []byte{1, 2}
	s.Put("k", buf)
	buf[0] = 9
	v, _ := s.Get("k")
	if v[0] != 1 {
		t.Fatalf("Put must copy the value")
	}
}

func TestHiddenCodecRoundTrip(t *testing.T) {
	h := tensor.Vector{0.5, -1.25, 3.75, 0}
	buf := EncodeHidden(h, 123456789)
	if len(buf) != HiddenValueBytes(4) {
		t.Fatalf("encoded size: %d", len(buf))
	}
	got, ts, ok := DecodeHidden(buf)
	if !ok || ts != 123456789 {
		t.Fatalf("decode failed: %v %v", ts, ok)
	}
	for i := range h {
		if got[i] != h[i] { // exactly representable in float32
			t.Fatalf("round trip: %v vs %v", got, h)
		}
	}
	// 128-dim hidden must be 512 bytes + 8-byte timestamp, matching §9.
	if HiddenValueBytes(128) != 520 {
		t.Fatalf("HiddenValueBytes(128) = %d", HiddenValueBytes(128))
	}
}

func TestHiddenCodecRejectsGarbage(t *testing.T) {
	if _, _, ok := DecodeHidden([]byte{1, 2, 3}); ok {
		t.Fatalf("short buffer must fail")
	}
	if _, _, ok := DecodeHidden(make([]byte, 11)); ok {
		t.Fatalf("misaligned buffer must fail")
	}
}

func testModel() *core.Model {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	return core.New(synth.MobileTabSchema(), cfg)
}

func TestStreamProcessorUpdatesHidden(t *testing.T) {
	m := testModel()
	store := NewKVStore()
	p := NewStreamProcessor(m, store)

	start := synth.DefaultStart
	p.OnSessionStart("s1", 7, start, []int{3, 10})
	p.OnAccess("s1", start+60)
	if p.Pending() != 1 {
		t.Fatalf("session should be buffered")
	}
	// Before the timer fires, no hidden state.
	if _, ok := store.Get(hiddenKey(7)); ok {
		t.Fatalf("hidden must not exist before finalisation")
	}
	// Advance past session length + ε.
	p.Advance(start + m.Schema.SessionLength + p.Epsilon + 1)
	if p.Pending() != 0 {
		t.Fatalf("session should be finalised")
	}
	raw, ok := store.Get(hiddenKey(7))
	if !ok {
		t.Fatalf("hidden state missing after finalisation")
	}
	h, ts, ok2 := DecodeHidden(raw)
	if !ok2 || ts != start || len(h) != m.StateSize() {
		t.Fatalf("stored hidden malformed: ts=%d len=%d", ts, len(h))
	}
	if p.UpdatesRun != 1 {
		t.Fatalf("UpdatesRun: %d", p.UpdatesRun)
	}
}

func TestStreamProcessorAccessChangesState(t *testing.T) {
	run := func(access bool) tensor.Vector {
		m := testModel()
		store := NewKVStore()
		p := NewStreamProcessor(m, store)
		start := synth.DefaultStart
		p.OnSessionStart("s", 1, start, []int{0, 0})
		if access {
			p.OnAccess("s", start+10)
		}
		p.Flush()
		raw, _ := store.Get(hiddenKey(1))
		h, _, _ := DecodeHidden(raw)
		return h
	}
	a, b := run(true), run(false)
	diff := 0.0
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1e-6 {
		t.Fatalf("access event must change the stored hidden state")
	}
}

func TestStreamProcessorChainsSessions(t *testing.T) {
	m := testModel()
	store := NewKVStore()
	p := NewStreamProcessor(m, store)
	start := synth.DefaultStart
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		ts := start + int64(i)*7200
		p.OnSessionStart(id, 1, ts, []int{i, 0})
		if i%2 == 0 {
			p.OnAccess(id, ts+30)
		}
	}
	p.Flush()
	if p.UpdatesRun != 5 {
		t.Fatalf("UpdatesRun: %d", p.UpdatesRun)
	}
	raw, _ := store.Get(hiddenKey(1))
	_, ts, _ := DecodeHidden(raw)
	if ts != start+4*7200 {
		t.Fatalf("final stored timestamp: %d", ts)
	}
}

func TestStreamProcessorIgnoresUnknownAccess(t *testing.T) {
	m := testModel()
	p := NewStreamProcessor(m, NewKVStore())
	p.OnAccess("ghost", synth.DefaultStart) // must not panic
	if p.Pending() != 0 {
		t.Fatalf("ghost access created a session")
	}
}

func TestPredictionServiceColdStartAndThreshold(t *testing.T) {
	m := testModel()
	store := NewKVStore()
	svc := NewPredictionService(m, store, 2.0) // unreachable threshold
	d := svc.OnSessionStart(42, synth.DefaultStart, []int{0, 0})
	if d.Probability < 0 || d.Probability > 1 {
		t.Fatalf("probability out of range: %v", d.Probability)
	}
	if d.Precompute {
		t.Fatalf("threshold 2.0 must never precompute")
	}
	svc.Threshold = -1
	d = svc.OnSessionStart(42, synth.DefaultStart, []int{0, 0})
	if !d.Precompute {
		t.Fatalf("threshold -1 must always precompute")
	}
	if svc.Predictions.Load() != 2 || svc.Precomputes.Load() != 1 {
		t.Fatalf("counters: %d %d", svc.Predictions.Load(), svc.Precomputes.Load())
	}
}

func TestEndToEndServingLoop(t *testing.T) {
	// Predictions must consult the hidden state produced by earlier
	// sessions: serve two users, one whose history is all accesses and one
	// all skips; after several sessions the access-heavy user should score
	// at least as high. (With an untrained model the direction isn't
	// guaranteed, so train briefly first.)
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 80
	data := synth.GenerateMobileTab(mtCfg)
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 16
	cfg.MLPHidden = 16
	m := core.New(data.Schema, cfg)
	tc := core.DefaultTrainConfig()
	tc.BatchUsers = 4
	tc.Epochs = 2
	core.NewTrainer(m, tc).Train(data)

	store := NewKVStore()
	proc := NewStreamProcessor(m, store)
	svc := NewPredictionService(m, store, 0.5)

	start := synth.DefaultStart
	serve := func(user int, access bool) float64 {
		var last float64
		for i := 0; i < 8; i++ {
			ts := start + int64(i)*4*3600
			id := fmt.Sprintf("u%d-s%d", user, i)
			proc.Advance(ts)
			dec := svc.OnSessionStart(user, ts, []int{5, 10})
			last = dec.Probability
			proc.OnSessionStart(id, user, ts, []int{5, 10})
			if access {
				proc.OnAccess(id, ts+30)
			}
		}
		proc.Flush()
		return last
	}
	pHot := serve(1, true)
	pCold := serve(2, false)
	if pHot <= pCold {
		t.Fatalf("history must matter: hot %v vs cold %v", pHot, pCold)
	}
}

func TestCompareCostsShape(t *testing.T) {
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 50
	d := synth.GenerateMobileTab(mtCfg)
	// Cost comparison is about the production configuration: the paper's
	// 128-dim hidden state and 128-unit MLP.
	ccfg := core.DefaultConfig()
	ccfg.HiddenDim = 128
	ccfg.MLPHidden = 128
	m := core.New(synth.MobileTabSchema(), ccfg)

	gcfg := gbdt.DefaultConfig()
	gcfg.Rounds = 50
	gcfg.MaxDepth = 6
	// A tiny fitted model suffices; costs use config shape.
	X := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.8}}
	y := []bool{true, false, true, false}
	g := gbdt.Fit(gcfg, X, y)

	r := CompareCosts(m, g, d, DefaultCostParams())

	if r.RNNLookupsPerPrediction != 1 {
		t.Fatalf("RNN must need exactly one lookup")
	}
	// MobileTab: 4 subsets × 4 windows + 4 elapsed groups = 20, the
	// paper's number.
	if r.GBDTLookupsPerPrediction != 20 {
		t.Fatalf("GBDT lookups: %v, want 20", r.GBDTLookupsPerPrediction)
	}
	if r.ModelComputeRatio <= 1 {
		t.Fatalf("RNN model compute must exceed GBDT: %v", r.ModelComputeRatio)
	}
	if r.ServingCostRatio <= 3 {
		t.Fatalf("net serving win should be large: %v", r.ServingCostRatio)
	}
	if r.RNNStateBytes != HiddenValueBytes(m.HiddenDim()) {
		t.Fatalf("state bytes: %d", r.RNNStateBytes)
	}
	if r.AggKeysPerUser <= 1 {
		t.Fatalf("aggregation store must hold many keys per user: %v", r.AggKeysPerUser)
	}
	if r.AggStateBytesPerUser <= float64(r.RNNStateBytes) {
		t.Fatalf("aggregation state (%v B) should dwarf the hidden state (%d B)",
			r.AggStateBytesPerUser, r.RNNStateBytes)
	}
}

func TestOnlineExperimentShape(t *testing.T) {
	// Small end-to-end online replay: train both models on a training
	// split, replay a cold-start cohort, check the Figure 7 shape (RNN
	// eventually ≥ GBDT, both warming up over days).
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 240
	data := synth.GenerateMobileTab(mtCfg)
	split := dataset.SplitUsers(data, 0.25, 9)

	cfg := core.DefaultConfig()
	cfg.HiddenDim = 16
	cfg.MLPHidden = 24
	m := core.New(data.Schema, cfg)
	tc := core.DefaultTrainConfig()
	tc.BatchUsers = 4
	tc.Epochs = 2
	core.NewTrainer(m, tc).Train(split.Train)

	b := features.NewBuilder(data.Schema)
	var X [][]float64
	var y []bool
	b.MinTs = data.CutoffForLastDays(7)
	for _, exs := range b.BuildDataset(split.Train) {
		for _, ex := range exs {
			X = append(X, ex.Dense)
			y = append(y, ex.Label)
		}
	}
	gcfg := gbdt.DefaultConfig()
	gcfg.Rounds = 30
	gcfg.MaxDepth = 4
	g := gbdt.Fit(gcfg, X, y)

	bEval := features.NewBuilder(data.Schema) // MinTs 0: cold start
	res := RunOnlineExperiment(m, g, bEval, split.Test, DefaultOnlineConfig())

	if len(res.RNNDaily) != 30 || len(res.GBDTDaily) != 30 {
		t.Fatalf("daily series length")
	}
	// Late-period averages must be finite and the RNN competitive.
	var rnnLate, gbLate float64
	n := 0
	for day := 14; day < 30; day++ {
		if !math.IsNaN(res.RNNDaily[day]) && !math.IsNaN(res.GBDTDaily[day]) {
			rnnLate += res.RNNDaily[day]
			gbLate += res.GBDTDaily[day]
			n++
		}
	}
	if n < 8 {
		t.Fatalf("too few valid late days: %d", n)
	}
	rnnLate /= float64(n)
	gbLate /= float64(n)
	t.Logf("late-period PR-AUC: RNN %.3f vs GBDT %.3f; recall@60%%: %.3f vs %.3f (gain %.1f%%)",
		rnnLate, gbLate, res.RNNRecall, res.GBDTRecall, 100*res.SuccessfulPrefetchGain)
	if rnnLate <= 0 || gbLate <= 0 {
		t.Fatalf("degenerate late-period AUCs")
	}
}

// EncodeHidden is EncodeHiddenInto into a fresh buffer.
func EncodeHidden(h tensor.Vector, lastTS int64) []byte {
	return EncodeHiddenInto(nil, h, lastTS)
}

// DecodeHidden reverses EncodeHiddenInto, sizing h from the encoding:
// the oracle the tests read stored states back with.
func DecodeHidden(buf []byte) (h tensor.Vector, lastTS int64, ok bool) {
	if len(buf) < 8 || (len(buf)-8)%4 != 0 {
		return nil, 0, false
	}
	// h is sized to match, so DecodeHiddenInto cannot fail here.
	h = tensor.NewVector((len(buf) - 8) / 4)
	lastTS, _ = DecodeHiddenInto(buf, h)
	return h, lastTS, true
}
