package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func testModel(t *testing.T, hidden int) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = hidden
	cfg.Seed = 7
	return core.New(synth.MobileTabSchema(), cfg)
}

// seqReplay replays the log through the sequential in-process path — the
// parity baseline every HTTP test compares against.
func seqReplay(m *core.Model, log []ReplayEvent) *serving.KVStore {
	st := serving.NewKVStore()
	p := serving.NewStreamProcessor(m, st)
	for _, e := range log {
		p.OnSessionStart(e.SID, e.User, e.Ts, e.Cat)
		if e.Access {
			p.OnAccess(e.SID, e.Ts+30)
		}
	}
	p.Flush()
	return st
}

// assertStatesEqual compares every hidden state of want against got, byte
// for byte, and returns how many it compared.
func assertStatesEqual(t *testing.T, want, got serving.Store) int {
	t.Helper()
	wantKeys := want.Keys()
	if len(wantKeys) == 0 {
		t.Fatal("baseline stored no states")
	}
	if gk := got.Keys(); len(gk) != len(wantKeys) {
		t.Fatalf("key count differs: got %d, want %d", len(gk), len(wantKeys))
	}
	for _, k := range wantKeys {
		w, ok1 := want.Get(k)
		g, ok2 := got.Get(k)
		if !ok1 || !ok2 {
			t.Fatalf("key %s missing (want %v, got %v)", k, ok1, ok2)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("state %s differs between paths", k)
		}
	}
	return len(wantKeys)
}

// TestHTTPReplayMatchesSequential is the parity gate: replaying an event
// log over the HTTP API through the micro-batcher stores hidden states
// byte-identical to sequential in-process replay of the same log — every
// state compared, plus the /digest endpoint agreeing with the in-process
// digest.
func TestHTTPReplayMatchesSequential(t *testing.T) {
	m := testModel(t, 24)
	log := ReplayLog(30, 3)
	if len(log) == 0 {
		t.Fatal("empty replay log")
	}
	seq := seqReplay(m, log)

	store := serving.NewShardedKVStore(8)
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := RunLoad(LoadOptions{
		BaseURL:       ts.URL,
		Concurrency:   4,
		EventsPerPost: 5,
		PredictEvery:  3,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.PredictsShed != 0 || rep.Errors != 0 {
		t.Fatalf("parity run must be clean: %+v", rep)
	}
	if rep.Predicts == 0 || rep.PredictLatency.Count == 0 {
		t.Fatalf("no predictions served: %+v", rep)
	}

	n := assertStatesEqual(t, seq, store)
	t.Logf("HTTP replay parity: %d hidden states byte-identical across %d sessions", n, len(log))

	_, dg, err := Digest(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := serving.StateDigest(seq); dg != want {
		t.Fatalf("/digest %s, want %s", dg, want)
	}

	// HTTP predictions must agree with direct in-process predictions
	// over the (now identical) state.
	svc := serving.NewPredictionService(m, seq, 0.5)
	for i := 0; i < 10; i++ {
		e := log[(i*37)%len(log)]
		want := svc.OnSessionStart(e.User, e.Ts, e.Cat)
		body, _ := json.Marshal(PredictIn{User: e.User, Ts: e.Ts, Cat: e.Cat})
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out PredictOut
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Probability != want.Probability || out.Precompute != want.Precompute {
			t.Fatalf("predict mismatch for user %d: got %+v, want %+v", e.User, out, want)
		}
	}

	st := srv.Stats()
	if st.UpdatesRun != int64(len(log)) {
		t.Fatalf("updates run %d, want %d", st.UpdatesRun, len(log))
	}
	if st.Batches <= 0 || st.MeanBatch < 1 {
		t.Fatalf("batcher stats look wrong: %+v", st)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownDrainsAndSnapshots covers the SIGTERM path: a
// server with parked micro-batches (long max-wait) must, on Shutdown,
// drain in-flight work, fire outstanding timers, and force a final
// statestore snapshot such that a clean reopen recovers every hidden
// state byte-identically.
func TestGracefulShutdownDrainsAndSnapshots(t *testing.T) {
	m := testModel(t, 16)
	log := ReplayLog(20, 5)
	dir := t.TempDir()
	ss, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{
		Model: m, Store: ss, State: ss, Threshold: 0.5,
		// A long max-wait parks partial batches: Shutdown must not lose
		// them. LaneDepth exceeds len(log), so this run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 2, MaxBatch: 64, MaxWait: 300 * time.Millisecond, LaneDepth: 2048,
	})
	ts := httptest.NewServer(srv.Handler())

	rep, err := RunLoad(LoadOptions{
		BaseURL:       ts.URL,
		Concurrency:   2,
		EventsPerPost: 4,
		Flush:         false, // leave timers outstanding and batches parked
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("ingest must be clean: %+v", rep)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Shutdown fires all outstanding timers, so the drained server equals
	// a full sequential replay + flush.
	seq := seqReplay(m, log)
	assertStatesEqual(t, seq, ss)

	if srv.Stats().UpdatesRun != int64(len(log)) {
		t.Fatalf("shutdown lost updates: ran %d, want %d", srv.Stats().UpdatesRun, len(log))
	}
	if ss.Lifecycle().Snapshots < 1 {
		t.Fatal("graceful shutdown must force a snapshot")
	}
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}

	// Reopen: every pre-shutdown state must come back byte-identical.
	pre := make(map[string][]byte)
	for _, k := range ss.Keys() {
		v, ok := ss.Get(k)
		if !ok {
			t.Fatalf("key %s unreadable before close", k)
		}
		pre[k] = v
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Lifecycle().RecoveredKeys != len(pre) {
		t.Fatalf("recovered %d states, want %d", re.Lifecycle().RecoveredKeys, len(pre))
	}
	for k, v := range pre {
		got, ok := re.Get(k)
		if !ok {
			t.Fatalf("state %s lost across shutdown + reopen", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("state %s differs after reopen", k)
		}
	}
}

// slowStore delays every Put, backing the finalisation pipeline up so
// admission control has something to shed.
type slowStore struct {
	serving.Store
	delay time.Duration
}

func (s *slowStore) Put(k string, v []byte) {
	time.Sleep(s.delay)
	s.Store.Put(k, v)
}

// TestBackpressureSheds pins the bounded-queue contract: when the
// finalisation backlog reaches Lanes*LaneDepth, POST /event returns 429
// and the shed counter advances — the server degrades by shedding, not by
// growing its queues without bound.
func TestBackpressureSheds(t *testing.T) {
	m := testModel(t, 16)
	slow := &slowStore{Store: serving.NewKVStore(), delay: 20 * time.Millisecond}
	srv := New(Options{
		Model: m, Store: slow, Threshold: 0.5,
		Lanes: 1, LaneDepth: 2, MaxBatch: 1, MaxWait: -1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	window := m.Schema.SessionLength + core.DefaultEpsilon
	base := synth.DefaultStart
	var accepted, shed int
	for i := 0; i < 60; i++ {
		// Each start's timestamp fires the previous session's timer, so
		// the backlog grows as fast as the slow store falls behind.
		ev := Event{
			Type: "start", Session: fmt.Sprintf("s%d", i),
			User: i, Ts: base + int64(i)*(window+10), Cat: []int{0, 0},
		}
		body, _ := json.Marshal(ev)
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatal("overloaded server never shed — queues are not bounded")
	}
	if accepted == 0 {
		t.Fatal("server shed everything — admission control too aggressive")
	}
	st := srv.Stats()
	if st.EventsShed != int64(shed) {
		t.Fatalf("shed counter %d, want %d", st.EventsShed, shed)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Everything admitted must eventually finalise (no lost updates).
	if got := srv.Stats().UpdatesRun; got != int64(accepted) {
		t.Fatalf("updates run %d, want %d (admitted)", got, accepted)
	}
}

// TestMicroBatchFlushPolicies pins the two flush triggers: a full batch
// flushes immediately (one GEMM group), and a partial batch flushes after
// max-wait without any further traffic.
func TestMicroBatchFlushPolicies(t *testing.T) {
	m := testModel(t, 16)
	store := serving.NewKVStore()
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		Lanes: 1, MaxBatch: 4, MaxWait: 40 * time.Millisecond, LaneDepth: 64,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	window := m.Schema.SessionLength + core.DefaultEpsilon
	base := synth.DefaultStart
	post := func(evs []Event) {
		body, _ := json.Marshal(evs)
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	// Four sessions, then a clock advance that makes all four due in one
	// dispatch burst: they must ride one max-batch flush.
	evs := make([]Event, 0, 5)
	for u := 0; u < 4; u++ {
		evs = append(evs, Event{Type: "start", Session: fmt.Sprintf("a%d", u), User: u, Ts: base + int64(u), Cat: []int{0, 0}})
	}
	post(evs)
	post([]Event{{Type: "start", Session: "tick", User: 99, Ts: base + window + 100, Cat: []int{0, 0}}})
	waitFor(t, func() bool { return srv.Stats().UpdatesRun == 4 })
	if st := srv.Stats(); st.Batches != 1 {
		t.Fatalf("4 concurrent dues should flush as one batch, got %d batches", st.Batches)
	}

	// Two more dues with no further traffic: the max-wait timer must flush
	// the partial batch on its own.
	post([]Event{
		{Type: "start", Session: "b0", User: 201, Ts: base + window + 200, Cat: []int{0, 0}},
		{Type: "start", Session: "b1", User: 202, Ts: base + window + 201, Cat: []int{0, 0}},
		{Type: "start", Session: "tick2", User: 203, Ts: base + 3*window, Cat: []int{0, 0}},
	})
	waitFor(t, func() bool { return srv.Stats().UpdatesRun == 7 })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventValidation pins the API's 400 behaviour.
func TestEventValidation(t *testing.T) {
	m := testModel(t, 8)
	srv := New(Options{Model: m, Store: serving.NewKVStore(), Threshold: 0.5, Lanes: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"type":"nonsense","session":"x","ts":5}`,
		`{"type":"start","ts":5,"cat":[0,0]}`,                         // no session
		`{"type":"start","session":"x","cat":[0,0]}`,                  // no ts
		`{"type":"access","ts":5}`,                                    // no session
		`{"type":"start","session":"x","user":-1,"ts":5,"cat":[0,0]}`, // bad user
		`{"type":"start","session":"x","ts":5}`,                       // missing cat
		`{"type":"start","session":"x","ts":5,"cat":[9999,0]}`,        // cat out of range
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPReplayF32TierParity runs the micro-batched HTTP path with the
// f32 finaliser tier and compares against the f32 sequential in-process
// replay: the f32 accumulation contract makes every hidden state
// byte-identical across the two paths, exactly like the f64 parity gate.
// /statz must surface the active tier.
func TestHTTPReplayF32TierParity(t *testing.T) {
	m := testModel(t, 24)
	log := ReplayLog(30, 3)

	seq := serving.NewKVStore()
	p := serving.NewStreamProcessor(m, seq)
	if err := p.SetPrecision(nn.TierF32); err != nil {
		t.Fatal(err)
	}
	for _, e := range log {
		p.OnSessionStart(e.SID, e.User, e.Ts, e.Cat)
		if e.Access {
			p.OnAccess(e.SID, e.Ts+30)
		}
	}
	p.Flush()

	store := serving.NewShardedKVStore(8)
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
		Precision: nn.TierF32,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := RunLoad(LoadOptions{
		BaseURL:       ts.URL,
		Concurrency:   4,
		EventsPerPost: 5,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("parity run must be clean: %+v", rep)
	}
	n := assertStatesEqual(t, seq, store)
	t.Logf("f32 HTTP replay parity: %d hidden states byte-identical", n)

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stz Statz
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stz.Precision != "f32" {
		t.Fatalf("/statz precision = %q, want f32", stz.Precision)
	}
	if stz.Kernel != tensor.KernelF64() {
		t.Fatalf("/statz kernel = %q, want %q", stz.Kernel, tensor.KernelF64())
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsUnsupportedF32 pins the constructor gate: a cell
// without an f32 inference tier must refuse the f32 option loudly at
// startup, not corrupt states at the first finalisation.
func TestServerRejectsUnsupportedF32(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.Cell = nn.CellLSTM
	m := core.New(synth.MobileTabSchema(), cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted f32 precision for an LSTM model")
		}
	}()
	New(Options{Model: m, Store: serving.NewKVStore(), Threshold: 0.5, Precision: nn.TierF32})
}
